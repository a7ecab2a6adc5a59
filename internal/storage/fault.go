package storage

import (
	"fmt"
	"io"
	"runtime/debug"
	"unsafe"
)

// FaultGuard turns a fault on a mapped page into the error the pool returns
// for the same read. A mapping serves the page cache directly, so a file
// cut after it was mapped answers a read past its new end with SIGBUS, which
// would end the process; through the pool the same read comes up short and
// returns ErrRead wrapping io.ErrUnexpectedEOF. A reader arms the guard once
// around a whole walk of the file and defers its Recover:
//
//	defer GuardFaults(src).Recover(&err)
//
// Only a fault whose address lies inside src's own mapping is recovered;
// any other panic, a fault elsewhere included, is raised again. A guard of
// a source that is not a mapping does nothing.
type FaultGuard struct {
	lo, hi uintptr // the mapping's address range; hi == 0: not armed
	old    bool    // the goroutine's SetPanicOnFault setting before arming
}

// GuardFaults arms a FaultGuard for src on the calling goroutine: from now
// until Recover runs, a memory fault on this goroutine panics instead of
// crashing the process. The guard belongs to this goroutine alone.
func GuardFaults(src PageSource) FaultGuard {
	m, ok := src.(*mmapSource)
	if !ok || len(m.data) == 0 {
		return FaultGuard{}
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(m.data)))
	return FaultGuard{lo: lo, hi: lo + uintptr(len(m.data)), old: debug.SetPanicOnFault(true)}
}

// Recover disarms the guard. It must be deferred directly, in the function
// that called GuardFaults, with a pointer to that function's error result:
// a fault on the guarded mapping becomes that error.
func (g FaultGuard) Recover(err *error) {
	if g.hi == 0 {
		return
	}
	debug.SetPanicOnFault(g.old)
	r := recover()
	if r == nil {
		return
	}
	if f, ok := r.(interface{ Addr() uintptr }); ok {
		if a := f.Addr(); g.lo <= a && a < g.hi {
			*err = fmt.Errorf("storage: reading mapped page %d: %w: %w", (a-g.lo)/PageSize, ErrRead, io.ErrUnexpectedEOF)
			return
		}
	}
	//lint:ignore panicpath re-raise: the guard recovers only faults on its own mapping; any other panic (a caller's, a fault elsewhere) goes on unwinding as it came
	panic(r)
}
