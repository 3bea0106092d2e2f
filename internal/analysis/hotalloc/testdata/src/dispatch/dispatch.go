// Package dispatch exercises the calls hotalloc's call graph cannot name
// statically: an interface call, made on a struct that embeds the interface
// or on a type parameter it constrains too, reaches the methods of the types
// that implement the interface the call is made on, one declared in a
// function body included, and no other method of that name, not even one of
// a type that implements only an interface embedded in it; a call through a
// slice element, or through a function value a package-level initializer
// took, reaches its target; and an indexed callee that is a generic function
// is a static call.
package dispatch

type Pair interface {
	Left() []int
	Right()
}

type left struct{}

func (left) Left() []int { return make([]int, 3) } // want `make allocates`

type right struct{}

func (right) Right() {}

func join() Pair {
	type both struct { // the one Pair
		left
		right
	}
	return both{}
}

type Sizer interface{ Size() []int }

type Sized interface { // called on, it is Sized that types must implement
	Sizer
	Name() []int
}

type named struct{}

func (named) Size() []int { return make([]int, 5) } // want `make allocates`
func (named) Name() []int { return make([]int, 7) } // want `make allocates`

type bare struct{} // Size without Name: a Sizer, but no Sized

func (bare) Size() []int { return make([]int, 6) }

type wrapped struct{ Sized }

func viaParam[T Sized](t T) int { return len(t.Size()) }

var initialized = []func() []int{fromInit}

func fromInit() []int { return make([]int, 4) } // want `make allocates`

func fromSlice(n int) []int { return make([]int, n) } // want `make allocates`

func wire() []func(int) []int { return []func(int) []int{fromSlice} }

func generic[T any](n int) []T { return make([]T, n) } // want `make allocates`

//lint:hotroot dispatch fixture
func Root(p Pair, s Sized, w wrapped, fs []func(int) []int) int {
	n := len(p.Left()) + len(s.Size()) + len(w.Size()) + len(w.Name())
	n += viaParam(s) + len(fs[0](1)) + len(generic[int](1))
	for _, f := range initialized {
		n += len(f())
	}
	return n
}
