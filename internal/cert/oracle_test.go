package cert

import (
	"testing"

	"productsort/internal/schedule"
	"productsort/internal/simnet"
)

// The oracle is an independent, naive evaluator of the schedule IR used
// to judge the certifier: plain integer compare-exchange, one vector at
// a time, no bit tricks. Any disagreement between the bitsliced engine
// and this oracle is a certifier bug.

// oracle is the evaluator prepared for one program: the snake order
// and the exchange pairs in program order, read once so an exhaustive
// sweep does not re-derive them for every vector.
type oracle struct {
	snake []int    // snake position -> node id
	pairs [][2]int // every compare-exchange pair, in program order
	keys  []int    // node-indexed scratch
}

func newOracle(prog *schedule.Program) *oracle {
	net := prog.Net()
	o := &oracle{snake: make([]int, net.Nodes()), keys: make([]int, net.Nodes())}
	for p := range o.snake {
		o.snake[p] = net.NodeAtSnake(p)
	}
	for _, op := range prog.Ops() {
		if op.Kind == schedule.OpCompareExchange || op.Kind == schedule.OpRoutedExchange {
			o.pairs = append(o.pairs, op.Pairs...)
		}
	}
	return o
}

// replay runs the program over one 0-1 vector (snake order), leaving
// the node-indexed result in o.keys.
func (o *oracle) replay(vec []byte) {
	for p, node := range o.snake {
		o.keys[node] = int(vec[p])
	}
	for _, pr := range o.pairs {
		if o.keys[pr[0]] > o.keys[pr[1]] {
			o.keys[pr[0]], o.keys[pr[1]] = o.keys[pr[1]], o.keys[pr[0]]
		}
	}
}

// sorts reports whether the program sorts the one 0-1 vector.
func (o *oracle) sorts(vec []byte) bool {
	o.replay(vec)
	for p := 1; p < len(o.snake); p++ {
		if o.keys[o.snake[p]] < o.keys[o.snake[p-1]] {
			return false
		}
	}
	return true
}

// oracleReplay runs prog over one 0-1 vector (snake order) and returns
// the output in snake order.
func oracleReplay(prog *schedule.Program, vec []byte) []int {
	o := newOracle(prog)
	o.replay(vec)
	out := make([]int, len(o.snake))
	for p, node := range o.snake {
		out[p] = o.keys[node]
	}
	return out
}

// oracleSorts reports whether prog sorts the one 0-1 vector.
func oracleSorts(prog *schedule.Program, vec []byte) bool {
	return newOracle(prog).sorts(vec)
}

// oracleSortsAll exhaustively checks all 2^n 0-1 vectors — by the 0-1
// principle, the ground truth for "this program sorts".
func oracleSortsAll(t *testing.T, prog *schedule.Program) bool {
	t.Helper()
	n := prog.Net().Nodes()
	if n > 20 {
		t.Fatalf("oracle is for small networks; %d keys is too many", n)
	}
	o := newOracle(prog)
	vec := make([]byte, n)
	for v := 0; v < 1<<n; v++ {
		for p := 0; p < n; p++ {
			vec[p] = byte((v >> p) & 1)
		}
		if !o.sorts(vec) {
			return false
		}
	}
	return true
}

// TestOracleMatchesExecBackend ties the oracle's (and hence the
// certifier's) reading of the IR to the real replay backend: both must
// produce identical outputs for identical 0-1 inputs.
func TestOracleMatchesExecBackend(t *testing.T) {
	prog := compileHypercube(t, 3)
	net := prog.Net()
	n := net.Nodes()
	vec := make([]byte, n)
	for v := 0; v < 1<<n; v++ {
		for p := 0; p < n; p++ {
			vec[p] = byte((v >> p) & 1)
		}
		keys := make([]simnet.Key, n)
		for p := 0; p < n; p++ {
			keys[net.NodeAtSnake(p)] = simnet.Key(vec[p])
		}
		if _, err := (schedule.ExecBackend{}).Run(prog, keys); err != nil {
			t.Fatal(err)
		}
		want := oracleReplay(prog, vec)
		for p := 0; p < n; p++ {
			if int(keys[net.NodeAtSnake(p)]) != want[p] {
				t.Fatalf("vector %0*b: backend and oracle disagree at snake pos %d", n, v, p)
			}
		}
	}
}
