package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// workload is one set of inputs the benchmark runs. Its inputs are made from
// the seed alone: the initial data at construction, each client's request
// stream by newClient.
type workload interface {
	name() string
	clients() int
	config() config
	relations() []string
	// define creates the relations and constraints; it runs again after a
	// durable reopen, since constraints live in the application.
	define(e engine) error
	populate(e engine) error
	// newClient starts client i's request stream from its beginning. The
	// workload keeps the clients of the latest phase for check.
	newClient(i int) client
	// check compares the final state with what the latest phase's clients
	// sent and returns what differs.
	check(final map[string][][]any, log [][]done) []string
}

func newWorkload(name string, seed int64, tiny bool) (workload, error) {
	switch name {
	case "oltp":
		return newOLTP(seed, tiny), nil
	case "durable":
		return newDurable(seed, tiny), nil
	case "paged":
		return newPaged(seed, tiny), nil
	case "adhoc":
		return newAdhoc(seed, tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want oltp, durable, paged or adhoc)", name)
}

var workloadNames = []string{"oltp", "durable", "paged", "adhoc"}

// clientRand is client i's generator; streams of different clients and
// seeds are independent.
func clientRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(i)*104729 + 1))
}

// userBytesWritten sums the user bytes of the committed transactions of the
// timed phase (the base of the write-amplification ratios).
func userBytesWritten(log [][]done) int {
	n := 0
	for _, l := range log {
		for _, d := range l {
			if d.timed && !d.op.read && d.out.committed {
				n += d.op.bytes
			}
		}
	}
	return n
}

// txnText brackets statements into transaction text.
func txnText(stmts ...string) string {
	return "begin " + strings.Join(stmts, "; ") + "; end"
}

// tuples renders rows as a values literal.
func tuples(rows ...[]any) string {
	var sb strings.Builder
	sb.WriteString("values[")
	for i, r := range rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		for j, v := range r {
			if j > 0 {
				sb.WriteString(", ")
			}
			switch x := v.(type) {
			case string:
				sb.WriteString("'" + x + "'")
			default:
				fmt.Fprint(&sb, x)
			}
		}
		sb.WriteByte(')')
	}
	sb.WriteByte(']')
	return sb.String()
}

func defineAll(e engine, ddl []string, constraints [][2]string) error {
	for _, d := range ddl {
		if err := e.createRelation(d); err != nil {
			return fmt.Errorf("%s: %w", d, err)
		}
	}
	for _, c := range constraints {
		if err := e.defineConstraint(c[0], c[1]); err != nil {
			return fmt.Errorf("constraint %s: %w", c[0], err)
		}
	}
	return nil
}

// rowKey renders a row for set comparison.
func rowKey(r []any) string { return fmt.Sprintf("%v", r) }

// diffRows compares two row sets and describes the first differences.
func diffRows(rel string, got, want [][]any) []string {
	g := make(map[string]int, len(got))
	for _, r := range got {
		g[rowKey(r)]++
	}
	var out []string
	for _, r := range want {
		k := rowKey(r)
		if g[k] == 0 {
			out = append(out, fmt.Sprintf("%s: missing row %v", rel, r))
		} else {
			g[k]--
		}
		if len(out) >= 3 {
			return out
		}
	}
	for k, n := range g {
		if n > 0 {
			out = append(out, fmt.Sprintf("%s: unexpected row %s", rel, k))
			if len(out) >= 3 {
				break
			}
		}
	}
	return out
}
