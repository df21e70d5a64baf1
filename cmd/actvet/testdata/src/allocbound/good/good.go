// Package good stays allocation-free on its annotated paths.
package good

// sum is a pure reduction: nothing escapes.
//
//act:hotpath
func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// grow allocates deliberately, with the reason on record.
//
//act:hotpath
func grow(n int) []int {
	//act:allow-alloc cold resize path, amortized by the caller
	return make([]int, n)
}

// index walks without allocating; the probe-loop shape.
//
//act:hotpath
func index(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
