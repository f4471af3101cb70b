package skel

import (
	"fmt"

	"parhask/internal/eden"
	"parhask/internal/graph"
	"parhask/internal/pe"
)

// TaskFunc processes one task in a worker, optionally producing new
// tasks (enabling backtracking and branch-and-bound search trees, as the
// paper notes) along with the task's result.
type TaskFunc func(w pe.Ctx, task graph.Value) (newTasks []graph.Value, result graph.Value)

// mwResult is the packet a worker returns per task.
type mwResult struct {
	NewTasks []graph.Value
	Result   graph.Value
}

// PackedSize implements eden.Sized.
func (m mwResult) PackedSize() int64 {
	n := eden.SizeOf(m.Result) + 16
	for _, t := range m.NewTasks {
		n += eden.SizeOf(t)
	}
	return n
}

// DeepCopy implements eden.Sized: the new tasks and the result are
// copied with the message rules.
func (m mwResult) DeepCopy() (graph.Value, error) {
	tasks, err := eden.CopyValues(m.NewTasks)
	if err != nil {
		return nil, err
	}
	res, err := eden.CopyChecked(m.Result)
	if err != nil {
		return nil, err
	}
	return mwResult{NewTasks: tasks, Result: res}, nil
}

// mwState is the master's shared coordination state; it lives on the
// master PE and is mutated by the per-worker collector threads. Threads
// on one PE interleave only at explicit yield points, so the plain
// mutations between communications are atomic.
type mwState struct {
	queue       []graph.Value
	outstanding int
	results     []graph.Value
	pending     []pe.StreamOut // workers waiting for a task (one entry per free slot)
	handles     []pe.StreamOut
	closed      bool
	collectors  int
	done        *graph.Thunk
}

func (st *mwState) dispatch(p pe.Ctx, wh pe.StreamOut) {
	if st.closed {
		return
	}
	if len(st.queue) == 0 {
		st.pending = append(st.pending, wh)
		return
	}
	t := st.queue[0]
	st.queue = st.queue[1:]
	st.outstanding++
	p.StreamSend(wh, t)
}

func (st *mwState) drainPending(p pe.Ctx) {
	for len(st.pending) > 0 && len(st.queue) > 0 && !st.closed {
		wh := st.pending[0]
		st.pending = st.pending[1:]
		st.dispatch(p, wh)
	}
}

func (st *mwState) checkDone(p pe.Ctx) {
	if st.closed || st.outstanding > 0 || len(st.queue) > 0 {
		return
	}
	st.closed = true
	for _, wh := range st.handles {
		p.StreamClose(wh)
	}
}

// MasterWorker runs a dynamic bag-of-tasks farm (§II-A): nWorkers
// processes collectively consume a dynamically growing set of
// irregularly-sized tasks under the control of the calling (master)
// process. Each worker keeps up to prefetch tasks in flight to hide the
// master round-trip. Results are returned in completion order.
func MasterWorker(p pe.Ctx, name string, nWorkers, prefetch int, work TaskFunc, initial []graph.Value) []graph.Value {
	if nWorkers <= 0 {
		panic("skel: MasterWorker needs at least one worker")
	}
	if prefetch <= 0 {
		prefetch = 1
	}
	st := &mwState{
		queue:      append([]graph.Value(nil), initial...),
		collectors: nWorkers,
		done:       graph.NewPlaceholder(),
	}

	resIns := make([]pe.StreamIn, nWorkers)
	for i := 0; i < nWorkers; i++ {
		dest := placement(p, i)
		taskIn, taskOut := p.NewStream(dest)
		resIn, resOut := p.NewStream(p.PE())
		st.handles = append(st.handles, taskOut)
		resIns[i] = resIn
		p.Spawn(dest, fmt.Sprintf("%s-w%d", name, i), func(w pe.Ctx) {
			for {
				t, ok := w.StreamRecv(taskIn)
				if !ok {
					break
				}
				nt, res := work(w, t)
				w.StreamSend(resOut, mwResult{NewTasks: nt, Result: res})
			}
			w.StreamClose(resOut)
		})
	}

	// Prime every worker with prefetch tasks.
	for _, wh := range st.handles {
		for k := 0; k < prefetch; k++ {
			st.dispatch(p, wh)
		}
	}
	st.checkDone(p) // handles the empty-initial-task-list edge case

	// One collector thread per worker merges the result streams (Eden's
	// nondeterministic merge; deterministic here by simulation order).
	for i := 0; i < nWorkers; i++ {
		i := i
		p.ForkLocal(fmt.Sprintf("%s-col%d", name, i), func(c pe.Ctx) {
			for {
				v, ok := c.StreamRecv(resIns[i])
				if !ok {
					break
				}
				r := v.(mwResult)
				st.outstanding--
				st.results = append(st.results, r.Result)
				st.queue = append(st.queue, r.NewTasks...)
				st.drainPending(c)
				st.dispatch(c, st.handles[i])
				st.checkDone(c)
			}
			st.collectors--
			if st.collectors == 0 {
				c.LocalResolve(st.done, true)
			}
		})
	}
	p.Await(st.done)
	return st.results
}
