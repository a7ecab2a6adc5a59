// Package ignored must pass viewescape only because the cursor-style
// retention is audited with a directive at the borrowing call.
package ignored

type source struct{ data []byte }

func (s *source) View(id uint64) ([]byte, func(), error) {
	return s.data, func() {}, nil
}

// cursor holds one borrowed view between open and close, the audited
// ownership pattern the disktree Reader uses.
type cursor struct {
	page    []byte
	release func()
}

// open borrows a view into the cursor's fields; close releases it on every
// caller return path.
func (c *cursor) open(s *source, id uint64) error {
	//lint:ignore viewescape fixture: the cursor owns the view between open and close; close releases it on every return path
	page, release, err := s.View(id)
	if err != nil {
		return err
	}
	c.page, c.release = page, release
	return nil
}

func (c *cursor) close() {
	if c.release != nil {
		c.release()
	}
	c.page, c.release = nil, nil
}
