// Package good holds the allocation-free hot-path idioms allocbound must
// accept.
package good

// search mimics the sort.Search idiom: the closure captures xs and target
// read-only and does not escape.
//
//act:hotpath
func search(xs []int, target int) int {
	return find(len(xs), func(i int) bool { return xs[i] >= target })
}

func find(n int, f func(int) bool) int {
	for i := 0; i < n; i++ {
		if f(i) {
			return i
		}
	}
	return n
}

// closureCapture mutates a captured variable, but the closure never
// escapes, so nothing moves to the heap (0 allocs/run).
//
//act:hotpath
func closureCapture() int {
	total := 0
	fn := func() { total++ }
	fn()
	return total
}

type sized interface{ Len() int }

type box struct{}

func (box) Len() int { return 0 }

func use(s sized) int { return s.Len() }

// convertArg boxes a value into an interface argument that does not
// escape (0 allocs/run).
//
//act:hotpath
func convertArg() int {
	return use(box{})
}

// Appending into capacity made up front, or into a caller-owned slice, is
// the amortized-reuse idiom hot loops are built on.
//
//act:hotpath
func appendPrealloc() int {
	out := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		out = append(out, i)
	}
	return len(out)
}

//act:hotpath
func appendCallerOwned(dst []int, xs []int) []int {
	for _, x := range xs {
		dst = append(dst, x)
	}
	return dst
}

// Functions without the annotation may allocate freely.
func coldPath() map[int]int { return map[int]int{1: 2} }
