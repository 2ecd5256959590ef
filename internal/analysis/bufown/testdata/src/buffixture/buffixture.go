// Package buffixture exercises the bufown analyzer: every acquired
// buffer or pinned view must reach a release, store handoff, or
// ownership transfer on every control-flow path.
package buffixture

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
		return nil, ErrMissing
	}
	delete(s.m, id)
	return b, nil
}

func (s *Store) PutBuf(id int, b *Buf) error {
	if s.m == nil {
		return ErrMissing
	}
	s.m[id] = b
	return nil
}

var ErrMissing = errors.New("missing")

// --- leaked view on an error path ------------------------------------

func leakOnError(s *Store, id int) ([]byte, error) {
	b, resident := s.View(id) // want `pinned view \(Store\.View\) is not released on every path out of leakOnError`
	if !resident {
		return nil, ErrMissing
	}
	if b.Len() == 0 {
		return nil, ErrMissing // leaks the pin
	}
	out := append([]byte(nil), b.Bytes()...)
	b.Release()
	return out, nil
}

func leakPlain(n int) {
	b := NewBuf(make([]byte, n)) // want `buffer \(NewBuf\) is not released on every path out of leakPlain`
	_ = b
}

// --- conditional release (failed-handoff chain) ----------------------

// putBack is the disciplined conditional chain: the store owns the
// buffer after a successful PutBuf; on failure ownership snaps back and
// the caller must release.
func putBack(src, dst *Store, id int) error {
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

// putBackLeak forgets the release on the failed-handoff path.
func putBackLeak(src, dst *Store, id int) error {
	b, err := src.TakeBuf(id) // want `taken buffer \(Store\.TakeBuf\) is not released on every path out of putBackLeak`
	if err != nil {
		return err
	}
	if perr := dst.PutBuf(id, b); perr != nil {
		return perr
	}
	return nil
}

// --- defer release ----------------------------------------------------

func deferRelease(s *Store, id int) int {
	b, resident := s.View(id)
	if !resident {
		return 0
	}
	defer b.Release()
	return b.Len()
}

// deferOnSomePaths registers the defer only in one branch: the other
// branch still leaks, and the shared exit chain must not excuse it.
func deferOnSomePaths(s *Store, id int, keep bool) int {
	b, resident := s.View(id) // want `pinned view \(Store\.View\) is not released on every path out of deferOnSomePaths`
	if !resident {
		return 0
	}
	if keep {
		defer b.Release()
	}
	return b.Len()
}

// --- ownership transfer by return ------------------------------------

func open(s *Store, id int) (*Buf, bool) {
	b, resident := s.View(id)
	if !resident {
		return nil, false
	}
	return b, true
}

// --- use after release ------------------------------------------------

func useAfterRelease(s *Store, id int) int {
	b, resident := s.View(id)
	if !resident {
		return 0
	}
	b.Release()
	return b.Len() // want `pinned view \(Store\.View\) used after release`
}

func aliasAfterRelease(s *Store, id int) []byte {
	b, resident := s.View(id)
	if !resident {
		return nil
	}
	data := b.Bytes()
	b.Release()
	return data // want `slice aliasing pinned view \(Store\.View\) used after the buffer was released`
}

// Reply borrows its Head until Release, as comm.Reply does.
type Reply struct{ Head []byte }

func (r Reply) Release() {}

func Call() (Reply, error) { return Reply{}, nil }

func headAfterRelease() []byte {
	rep, err := Call()
	if err != nil {
		return nil
	}
	head := rep.Head
	rep.Release()
	return head // want `slice aliasing reply \(Call\) used after the buffer was released`
}

// --- loops and merges stay precise -----------------------------------

func loopViews(s *Store, ids []int) int {
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

// --- a release method value hands off only on the path that takes it --

type reply struct {
	body []byte
	done func()
}

func serveSomePaths(s *Store, id int) reply {
	b, resident := s.View(id) // want `pinned view \(Store\.View\) is not released on every path out of serveSomePaths`
	if !resident {
		return reply{}
	}
	if b.Len() == 0 {
		return reply{} // the pin leaks here
	}
	return reply{body: b.Bytes(), done: b.Release}
}

// --- deliberate handoff, waived --------------------------------------

// pinForever holds the pin until process exit by design.
func pinForever(s *Store, id int) {
	//lint:allow bufown pinned deliberately until process exit
	b, resident := s.View(id)
	if resident {
		b.Len()
	}
}
