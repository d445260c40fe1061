package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// oltp: an in-memory order-entry database driven by two clients. About ten
// transaction templates reuse a few statement shapes with varying literals,
// so the front end (parse, modify, render, type-check) and index-probed
// enforcement checks do most of the work while commit stays cheap and all
// data is resident. Product popularity is Zipf-skewed, so stock updates of
// the two clients collide on hot products now and then. About 5% of the
// transactions violate exactly one constraint whatever the interleaving
// (a zero quantity, an unknown product or customer), and a few trip the
// price floor's clamp repair.
//
// Every template's outcome is fixed by construction: stock starts far above
// anything the run can order, client i only references its own orders and
// only sets prices of products with id%2 == i, and new keys come from
// per-client ranges.
//
// Once a client holds oltpOwnOrders orders, each new order also deletes
// its oldest one with its lines, so orders and order lines stop growing
// within the warm-up: the indexes the commit path rebuilds keep their size,
// and a run's figures do not depend on how many orders it managed to add.
type oltp struct {
	seed                int64
	nCust, nProd, nOrd  int
	initStock, initPric []int
	setupLines          [][]any
	setupOrders         [][]any
	cl                  []*oltpClient
}

const (
	oltpMissing = 900_000_000 // never a key of any relation
	oltpReserve = 1_000_000   // the reserve constraint's stock threshold
	// oltpOwnOrders is how many of its orders a client keeps.
	oltpOwnOrders = 200
)

func newOLTP(seed int64, tiny bool) *oltp {
	w := &oltp{seed: seed, nCust: 2000, nProd: 2000, nOrd: 4000}
	if tiny {
		w.nCust, w.nProd, w.nOrd = 40, 40, 40
	}
	r := rand.New(rand.NewSource(seed))
	for p := 0; p < w.nProd; p++ {
		// Every product holds more stock than two clients can order in a
		// run, and the last few — the least popular — hold the reserve.
		stock := 200_000 + r.Intn(100_000)
		if p >= w.nProd-4 {
			stock = 2*oltpReserve + r.Intn(1000)
		}
		w.initStock = append(w.initStock, stock)
		w.initPric = append(w.initPric, 10+r.Intn(990))
	}
	for o := 0; o < w.nOrd; o++ {
		w.setupOrders = append(w.setupOrders, []any{o, r.Intn(w.nCust), r.Intn(365)})
		for l := 1; l <= 1+r.Intn(3); l++ {
			w.setupLines = append(w.setupLines, []any{o, l, r.Intn(w.nProd), 1 + r.Intn(5)})
		}
	}
	return w
}

func (w *oltp) name() string   { return "oltp" }
func (w *oltp) clients() int   { return 2 }
func (w *oltp) config() config { return config{autoIndex: true} }
func (w *oltp) relations() []string {
	return []string{"customer", "product", "orders", "order_line"}
}

var oltpConstraints = [][2]string{
	{"ol_qty", `forall l (l in order_line implies l.qty > 0)`},
	{"ol_order", `forall l (l in order_line implies exists o (o in orders and l.ord = o.id))`},
	{"ol_product", `forall l (l in order_line implies exists p (p in product and l.product = p.id))`},
	{"ord_cust", `forall o (o in orders implies exists c (c in customer and o.cust = c.id))`},
	{"stock_nonneg", `forall p (p in product implies p.stock >= 0)`},
	{"reserve", fmt.Sprintf(`exists p (p in product and p.stock >= %d)`, oltpReserve)},
	{"price_floor", `forall p (p in product implies p.price >= 1) on violation clamp`},
}

func (w *oltp) define(e engine) error {
	return defineAll(e, []string{
		`relation customer(id int, name string, region string)`,
		`relation product(id int, price int, stock int, category string)`,
		`relation orders(id int, cust int, day int)`,
		`relation order_line(ord int, line int, product int, qty int)`,
	}, oltpConstraints)
}

func (w *oltp) populate(e engine) error {
	var cust, prod [][]any
	for c := 0; c < w.nCust; c++ {
		cust = append(cust, []any{c, fmt.Sprintf("c%d", c), regions[c%len(regions)]})
	}
	for p := 0; p < w.nProd; p++ {
		prod = append(prod, []any{p, w.initPric[p], w.initStock[p], categories[p%len(categories)]})
	}
	for _, l := range []struct {
		rel  string
		rows [][]any
	}{{"customer", cust}, {"product", prod}, {"orders", w.setupOrders}, {"order_line", w.setupLines}} {
		if err := e.load(l.rel, l.rows); err != nil {
			return err
		}
	}
	return nil
}

var (
	regions    = []string{"north", "south", "east", "west"}
	categories = []string{"tools", "toys", "food", "books", "garden"}
)

type oltpLine struct{ ord, line, product, qty int }

// oltpClient is one client's stream plus the model of what its committed
// transactions did.
type oltpClient struct {
	w      *oltp
	i      int
	r      *rand.Rand
	zipf   *rand.Zipf
	seq    int
	orders []int              // own committed orders, oldest first
	order  map[int][2]int     // customer and day of each own order
	lines  map[int][]oltpLine // own committed lines per order
	nLines int
	custs  int
	prods  []int       // own new products (price clamped to 1)
	stock  map[int]int // stock change per product
	price  map[int]int // current price of own-parity products
}

func (w *oltp) newClient(i int) client {
	r := clientRand(w.seed, i)
	c := &oltpClient{
		w: w, i: i, r: r,
		zipf:  rand.NewZipf(r, 1.1, 4, uint64(w.nProd-1)),
		order: make(map[int][2]int),
		lines: make(map[int][]oltpLine),
		stock: make(map[int]int),
		price: make(map[int]int),
	}
	if len(w.cl) < w.clients() {
		w.cl = make([]*oltpClient, w.clients())
	}
	w.cl[i] = c
	return c
}

func (c *oltpClient) key(base int) int { c.seq++; return base + c.i*100_000_000 + c.seq }
func (c *oltpClient) product() int     { return int(c.zipf.Uint64()) }
func (c *oltpClient) cust() int        { return c.r.Intn(c.w.nCust) }

// ownProduct is a product whose price only this client sets.
func (c *oltpClient) ownProduct() int {
	p := c.r.Intn(c.w.nProd/2)*2 + c.i
	if _, ok := c.price[p]; !ok {
		c.price[p] = c.w.initPric[p]
	}
	return p
}

func (c *oltpClient) next() op {
	r := c.r
	switch x := r.Intn(100); {
	case x < 10 && len(c.orders) > 0: // order status
		o := c.orders[r.Intn(len(c.orders))]
		return op{read: true, src: fmt.Sprintf("select(order_line, ord = %d)", o), want: want{kind: wantRows, rows: len(c.lines[o])}}
	case x < 40: // new order, one line
		return c.newOrder(1)
	case x < 55: // new order, two or three lines
		return c.newOrder(2 + r.Intn(2))
	case x < 65 && len(c.orders) > 0: // add a line to an own order
		o := c.orders[r.Intn(len(c.orders))]
		l := oltpLine{o, len(c.lines[o]) + 1, c.product(), 1 + r.Intn(5)}
		for _, old := range c.lines[o] {
			l.line = max(l.line, old.line+1)
		}
		c.addLines(l)
		return op{src: txnText(
			"insert(order_line, "+tuples([]any{l.ord, l.line, l.product, l.qty})+")",
			fmt.Sprintf("update(product, id = %d, [stock = stock - %d])", l.product, l.qty),
		), bytes: 4*8 + 4*8 + 12}
	case x < 72: // restock
		p, k := c.product(), 10+r.Intn(90)
		c.stock[p] += k
		return op{src: txnText(fmt.Sprintf("update(product, id = %d, [stock = stock + %d])", p, k)), bytes: 4*8 + 12}
	case x < 79: // price rise: provably safe for the floor, so its check is elided
		p, k := c.ownProduct(), 1+r.Intn(5)
		c.price[p] += k
		return op{src: txnText(fmt.Sprintf("update(product, id = %d, [price = price + %d])", p, k)), bytes: 4*8 + 12}
	case x < 82: // price reset below the floor: clamped to 1
		p := c.ownProduct()
		c.price[p] = 1
		return op{src: txnText(fmt.Sprintf("update(product, id = %d, [price = 0])", p)), want: want{kind: wantRepair}, bytes: 4*8 + 12}
	case x < 87: // new customer
		c.custs++
		id := c.key(10_000_000)
		return op{src: txnText("insert(customer, " + tuples([]any{id, fmt.Sprintf("n%d", id), regions[r.Intn(len(regions))]}) + ")"), bytes: 8 + 10 + 5}
	case x < 90 && c.nLines > 0: // cancel an own line
		o := c.orders[r.Intn(len(c.orders))]
		ls := c.lines[o]
		if len(ls) == 0 {
			return c.newOrder(1)
		}
		j := r.Intn(len(ls))
		l := ls[j]
		c.lines[o] = append(ls[:j:j], ls[j+1:]...)
		c.nLines--
		return op{src: txnText("delete(order_line, " + tuples([]any{l.ord, l.line, l.product, l.qty}) + ")"), bytes: 4 * 8}
	case x < 92: // new product at a negative price: clamped to 1
		id := c.key(20_000_000)
		c.prods = append(c.prods, id)
		return op{src: txnText("insert(product, " + tuples([]any{id, -1 - r.Intn(50), 1000, categories[r.Intn(len(categories))]}) + ")"),
			want: want{kind: wantRepair}, bytes: 3*8 + 5}
	case x < 94: // zero quantity
		return c.violation("ol_qty", 0, c.product(), c.cust())
	case x < 96: // unknown product
		return c.violation("ol_product", 1+r.Intn(5), oltpMissing+r.Intn(1000), c.cust())
	case x < 97: // unknown customer
		return c.violation("ord_cust", 1+r.Intn(5), c.product(), oltpMissing+r.Intn(1000))
	}
	return c.newOrder(1)
}

func (c *oltpClient) addLines(ls ...oltpLine) {
	for _, l := range ls {
		c.lines[l.ord] = append(c.lines[l.ord], l)
		c.stock[l.product] -= l.qty
		c.nLines++
	}
}

func (c *oltpClient) newOrder(n int) op {
	id := c.key(1_000_000)
	cust, day := c.cust(), c.r.Intn(365)
	stmts := []string{"insert(orders, " + tuples([]any{id, cust, day}) + ")"}
	var rows [][]any
	var ls []oltpLine
	for l := 1; l <= n; l++ {
		x := oltpLine{id, l, c.product(), 1 + c.r.Intn(5)}
		ls = append(ls, x)
		rows = append(rows, []any{x.ord, x.line, x.product, x.qty})
	}
	stmts = append(stmts, "insert(order_line, "+tuples(rows...)+")")
	for _, x := range ls {
		stmts = append(stmts, fmt.Sprintf("update(product, id = %d, [stock = stock - %d])", x.product, x.qty))
	}
	if len(c.orders) >= oltpOwnOrders {
		stmts = append(stmts, c.dropOldest()...)
	}
	c.orders = append(c.orders, id)
	c.order[id] = [2]int{cust, day}
	c.addLines(ls...)
	return op{src: txnText(stmts...), bytes: 3*8 + n*(4*8+4*8+12)}
}

// dropOldest forgets the client's oldest order and returns the statements
// that delete it and its lines.
func (c *oltpClient) dropOldest() []string {
	o := c.orders[0]
	c.orders = c.orders[1:]
	var stmts []string
	if ls := c.lines[o]; len(ls) > 0 {
		var rows [][]any
		for _, l := range ls {
			rows = append(rows, []any{l.ord, l.line, l.product, l.qty})
		}
		stmts = append(stmts, "delete(order_line, "+tuples(rows...)+")")
		c.nLines -= len(ls)
	}
	od := c.order[o]
	stmts = append(stmts, "delete(orders, "+tuples([]any{o, od[0], od[1]})+")")
	delete(c.lines, o)
	delete(c.order, o)
	return stmts
}

// violation is a new order whose line breaks exactly one constraint.
func (c *oltpClient) violation(constraint string, qty, product, cust int) op {
	id := c.key(1_000_000)
	return op{src: txnText(
		"insert(orders, "+tuples([]any{id, cust, c.r.Intn(365)})+")",
		"insert(order_line, "+tuples([]any{id, 1, product, qty})+")",
	), want: want{kind: wantAbort, constraint: constraint}}
}

func (w *oltp) check(final map[string][][]any, _ [][]done) []string {
	wantProd := make(map[int][]any)
	for p := 0; p < w.nProd; p++ {
		wantProd[p] = []any{int64(p), int64(w.initPric[p]), int64(w.initStock[p]), categories[p%len(categories)]}
	}
	orders, lines, custs := len(w.setupOrders), len(w.setupLines), w.nCust
	for _, c := range w.cl {
		if c == nil {
			continue
		}
		orders += len(c.orders)
		lines += c.nLines
		custs += c.custs
		for p, d := range c.stock {
			wantProd[p][2] = wantProd[p][2].(int64) + int64(d)
		}
		for p, v := range c.price {
			wantProd[p][1] = int64(v)
		}
	}
	var want [][]any
	for _, p := range sortedInts(wantProd) {
		want = append(want, wantProd[p])
	}
	var out []string
	var got [][]any
	newProds := 0
	for _, row := range final["product"] {
		if row[0].(int64) < int64(w.nProd) {
			got = append(got, row)
			continue
		}
		newProds++
		if row[1].(int64) != 1 {
			out = append(out, fmt.Sprintf("product %v: price not clamped to 1", row))
		}
	}
	out = append(out, diffRows("product", got, want)...)
	wantNew := 0
	for _, c := range w.cl {
		if c != nil {
			wantNew += len(c.prods)
		}
	}
	for _, n := range []struct {
		rel       string
		got, want int
	}{
		{"new products", newProds, wantNew},
		{"orders", len(final["orders"]), orders},
		{"order_line", len(final["order_line"]), lines},
		{"customer", len(final["customer"]), custs},
	} {
		if n.got != n.want {
			out = append(out, fmt.Sprintf("%s: %d rows, want %d", n.rel, n.got, n.want))
		}
	}
	return out
}

func sortedInts[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
