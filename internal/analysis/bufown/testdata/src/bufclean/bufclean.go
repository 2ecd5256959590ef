// Package bufclean is the bufown negative fixture: disciplined
// acquisition/release pairing in every supported shape.
package bufclean

import "errors"

type Buf struct{ data []byte }

func (b *Buf) Release()      {}
func (b *Buf) Bytes() []byte { return b.data }
func (b *Buf) Len() int      { return len(b.data) }

type Store struct{ m map[int]*Buf }

func NewBuf(payload []byte) *Buf { return &Buf{data: payload} }

func (s *Store) View(id int) (*Buf, bool) {
	b, ok := s.m[id]
	return b, ok
}

func (s *Store) TakeBuf(id int) (*Buf, error) {
	b, ok := s.m[id]
	if !ok {
		return nil, errMissing
	}
	delete(s.m, id)
	return b, nil
}

func (s *Store) PutBuf(id int, b *Buf) error {
	if s.m == nil {
		return errMissing
	}
	s.m[id] = b
	return nil
}

var errMissing = errors.New("missing")

// read releases on both the empty and the full path.
func read(s *Store, id int) []byte {
	b, resident := s.View(id)
	if !resident {
		return nil
	}
	if b.Len() == 0 {
		b.Release()
		return nil
	}
	out := append([]byte(nil), b.Bytes()...)
	b.Release()
	return out
}

// readDeferred uses the defer idiom.
func readDeferred(s *Store, id int) int {
	b, resident := s.View(id)
	if !resident {
		return 0
	}
	defer b.Release()
	return b.Len()
}

// transfer moves a buffer between stores with the snap-back release.
func transfer(src, dst *Store, id int) error {
	b, err := src.TakeBuf(id)
	if err != nil {
		return err
	}
	if perr := dst.PutBuf(id, b); perr != nil {
		b.Release()
		return perr
	}
	return nil
}

// produce transfers ownership to the caller.
func produce(n int) *Buf {
	return NewBuf(make([]byte, n))
}

// install hands a fresh buffer straight to the store, releasing only
// when the store refuses it.
func install(s *Store, id, n int) error {
	b := NewBuf(make([]byte, n))
	if err := s.PutBuf(id, b); err != nil {
		b.Release()
		return err
	}
	return nil
}

// sweep pairs acquisition and release inside each loop iteration.
func sweep(s *Store, ids []int) int {
	total := 0
	for _, id := range ids {
		b, resident := s.View(id)
		if !resident {
			continue
		}
		total += b.Len()
		b.Release()
	}
	return total
}

// reply is a response that borrows a pinned payload until done runs.
type reply struct {
	body []byte
	done func()
}

// serve hands the pin to the reply: taking the release method as a
// value transfers the obligation to whoever runs done.
func serve(s *Store, id int) reply {
	b, resident := s.View(id)
	if !resident {
		return reply{}
	}
	return reply{body: b.Bytes(), done: b.Release}
}
