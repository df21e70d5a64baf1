// Package bad exercises the hot-path rules allocbound took over from the
// retired hotpath analyzer: the two container-growth rules, and the
// closure captures and interface boxes that allocate because they escape.
package bad

// The container-growth rules: growth happens inside the runtime, where the
// escape transcript cannot see it.

//act:hotpath
func mapLit() map[int]int {
	return map[int]int{1: 2} // want `mapLit: map literal allocates on every call`
}

//act:hotpath
func makeMap() int {
	m := make(map[int]int) // want `makeMap: make\(map\) allocates on every call`
	return len(m)
}

//act:hotpath
func appendLocal() []int {
	var out []int
	for i := 0; i < 4; i++ {
		out = append(out, i) // want `append to out, declared without preallocated capacity`
	}
	return out
}

// Closure captures and interface boxes allocate only when they escape,
// which the transcript reports.

// hook keeps closureEscape's literal alive beyond the call.
var hook func()

//act:hotpath
func closureEscape() int {
	total := 0                // want `closureEscape: total escapes to heap`
	hook = func() { total++ } // want `closureEscape: func literal escapes to heap`
	hook()
	return total
}

type sized interface{ Len() int }

type box struct{}

func (box) Len() int { return 0 }

type box4 [4]int

func (b box4) Len() int { return b[0] }

// kept keeps retain's argument alive beyond the call.
var kept sized

//go:noinline
func retain(s sized) { kept = s }

//act:hotpath
func convertEscape() {
	retain(box4{}) // want `convertEscape: box4\{\} escapes to heap`
}

//act:hotpath
func convertReturn() sized {
	return box{} // want `convertReturn: box\{\} escapes to heap`
}
