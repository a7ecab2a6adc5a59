// Package good keeps its steady-state kernels allocation-free: state lives
// in the pooled context and plain struct values stay on the stack.
package good

type point struct {
	x, y int
}

type logger struct {
	n int
}

func (l *logger) Write(v int) { l.n += v }

type kernel struct {
	l   *logger
	buf []float64
	pt  *point
}

// step reuses pooled state only: the Write call passes a concrete value to
// a concrete parameter, and the buffer is written in place.
//
//twlint:steady-state
func (k *kernel) step(v int) {
	k.pt.x = v
	k.buf[0] = float64(v)
	k.l.Write(v)
}

// emit builds a plain struct value, which stays on the stack.
//
//twlint:steady-state
func (k *kernel) emit(v int) point {
	return point{x: v, y: k.pt.y}
}
