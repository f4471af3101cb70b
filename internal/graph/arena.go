package graph

// Arena is an owner-local bump allocator of Thunk nodes: the per-worker
// allocation-area analogue of the paper's §IV-A.1 experiment. Each GpH
// capability in GHC 6.10 got a bigger private nursery so thunk
// allocation stopped triggering stop-the-world collections; here each
// native worker gets an Arena so thunk allocation stops going through
// Go's global allocator one object at a time. Thunks are handed out by
// index from a chunk ([]Thunk), so the allocator's cost is amortised to
// one make per ChunkThunks thunks and the GC sees one large object
// instead of thousands of small ones.
//
// An Arena is intentionally NOT safe for concurrent use: exactly one
// goroutine (the owning worker) allocates from it. The thunks it hands
// out are ordinary shared heap nodes — any worker may claim, force and
// update them; only the *allocation* is owner-local. The arena holds
// only the chunk it is filling: a handed-out *Thunk is an interior
// pointer and pins its own chunk for as long as anything can reach it,
// and a filled chunk nothing reaches is garbage — a resident worker's
// arena, which is never Reset, must not keep every job's thunks alive.
type Arena struct {
	chunk []Thunk
	pos   int

	// chunkThunks is the chunk capacity in thunks.
	chunkThunks int

	// filled counts the chunks completed since the last Reset, for Stats.
	filled int64
}

// DefaultArenaChunk is the default chunk capacity, in thunks. At 56
// bytes per Thunk a chunk is 14 KB — comfortably L2-resident, and two
// orders of magnitude fewer allocator calls than one make per thunk.
const DefaultArenaChunk = 256

// NewArena returns an arena handing out chunks of chunkThunks thunks
// (<= 0 selects DefaultArenaChunk).
func NewArena(chunkThunks int) *Arena {
	if chunkThunks <= 0 {
		chunkThunks = DefaultArenaChunk
	}
	return &Arena{chunkThunks: chunkThunks}
}

// alloc hands out the next zeroed Thunk slot, growing by one chunk when
// the current one is exhausted.
func (a *Arena) alloc() *Thunk {
	if a.pos == len(a.chunk) {
		if a.chunk != nil {
			a.filled++
		}
		a.chunk = make([]Thunk, a.chunkThunks)
		a.pos = 0
	}
	t := &a.chunk[a.pos]
	a.pos++
	return t
}

// NewThunk arena-allocates an unevaluated thunk for fn — the drop-in
// counterpart of the package-level NewThunk.
func (a *Arena) NewThunk(fn func(Context) Value) *Thunk {
	return a.NewThunkAdapted(callFn, fn)
}

// NewPlaceholder arena-allocates a black-holed placeholder thunk — the
// message-cell counterpart of the package-level NewPlaceholder, used by
// the native Eden backend so a PE's channel cells come out of that PE's
// own allocation region.
func (a *Arena) NewPlaceholder() *Thunk {
	t := a.alloc()
	t.state.Store(int32(Blackholed))
	return t
}

// NewThunkAdapted arena-allocates an unevaluated thunk: adapt is a
// shared (package-level) trampoline and payload its per-thunk data. See
// AdaptFn.
func (a *Arena) NewThunkAdapted(adapt AdaptFn, payload any) *Thunk {
	t := a.alloc()
	t.adapt = adapt
	t.payload = payload
	return t
}

// Stats reports the arena's traffic since the last Reset: chunks
// allocated and thunks handed out.
func (a *Arena) Stats() (chunks, thunks int64) {
	chunks = a.filled
	if a.chunk != nil {
		chunks++
	}
	thunks = a.filled*int64(a.chunkThunks) + int64(a.pos)
	return chunks, thunks
}

// Reset recycles the arena for a new run: the current chunk is rewound
// and the counts start over. The caller must guarantee that no
// thunk handed out before the Reset is still reachable — the rewound
// chunk's slots are reused, so a stale reference would observe a
// different computation's node.
func (a *Arena) Reset() {
	a.filled = 0
	a.pos = 0
	clear(a.chunk)
}
