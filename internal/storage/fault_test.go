package storage

import (
	"errors"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
)

// guardedRead reads the first byte of page id through src under src's
// fault guard, as a traversal of a tree does.
func guardedRead(guarded, src PageSource, id PageID) (b byte, err error) {
	defer GuardFaults(guarded).Recover(&err)
	page, release, err := src.View(id)
	if err != nil {
		return 0, err
	}
	defer release()
	return page[0], nil
}

// cutSource opens a fresh file of pages pages through backend, then cuts
// the file after its first page (page 1; page 0 is the meta page): every
// page after it has gone under the open source.
func cutSource(t *testing.T, backend Backend, pages int) PageSource {
	t.Helper()
	pf, _ := sourceFixture(t, pages)
	src, err := NewSource(pf, backend, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	if err := os.Truncate(pf.Path(), 2*PageSize); err != nil {
		t.Fatal(err)
	}
	return src
}

// mapped skips the test where the platform serves the mmap backend through
// the pool.
func mapped(t *testing.T, src PageSource) {
	t.Helper()
	if _, ok := src.(*mmapSource); !ok {
		t.Skipf("mmap unavailable here (%T)", src)
	}
}

// TestMmapFaultGuard: a read of a page that was cut from under an open
// source fails with ErrRead wrapping io.ErrUnexpectedEOF through either
// backend — through a mapping the read faults, and the guard turns the
// fault into that error and disarms. Any panic the guard was not armed for
// goes on as it came: a caller's own, and a fault at an address outside
// the guarded mapping.
func TestMmapFaultGuard(t *testing.T) {
	for _, backend := range []Backend{BackendPool, ""} {
		t.Run("cut/"+backend.String(), func(t *testing.T) {
			src := cutSource(t, backend, 4)
			if _, err := guardedRead(src, src, 1); err != nil {
				t.Fatalf("page 1, left whole by the cut: %v", err)
			}
			_, err := guardedRead(src, src, 3)
			if !errors.Is(err, ErrRead) || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("page 3 of a cut file: %v, want ErrRead and io.ErrUnexpectedEOF", err)
			}
			if debug.SetPanicOnFault(false) {
				t.Error("the guard left panic-on-fault armed")
			}
		})
	}

	t.Run("caller panic", func(t *testing.T) {
		src := cutSource(t, "", 2)
		mapped(t, src)
		type sentinel struct{}
		got := func() (r any) {
			defer func() { r = recover() }()
			var err error
			defer GuardFaults(src).Recover(&err)
			panic(sentinel{})
		}()
		if got != (sentinel{}) {
			t.Fatalf("the guard turned a caller's panic into %v", got)
		}
	})

	t.Run("fault elsewhere", func(t *testing.T) {
		guarded := cutSource(t, "", 2)
		other := cutSource(t, "", 4)
		mapped(t, guarded)
		for _, fault := range []struct {
			name string
			read func() error
		}{
			{"another mapping", func() error { _, err := guardedRead(guarded, other, 3); return err }},
			{"nil", func() (err error) {
				defer GuardFaults(guarded).Recover(&err)
				var p *[PageSize]byte
				_ = p[1]
				return nil
			}},
		} {
			var err error
			r := func() (r any) {
				defer func() { r = recover() }()
				err = fault.read()
				return nil
			}()
			if _, ok := r.(runtime.Error); !ok || err != nil {
				t.Errorf("%s: the guard recovered a fault outside its mapping: %v, %v", fault.name, r, err)
			}
		}
		if debug.SetPanicOnFault(false) {
			t.Error("the guard left panic-on-fault armed")
		}
	})
}
