package sim

// Task is a simulated thread. Its body is a chain of steps — event
// callbacks and the continuations of kernel-side operations (Cont) —
// that run on the kernel goroutine, so advancing it costs no host
// thread switch. A step is a func(uint64) bound once, typically a
// method value of the thread's own state machine, and the argument
// selects the state. A wait is a Signal.WaitCell (or Gate, or
// WaitAnyCell) registration whose wake runs the next step.
//
// A Task counts in LiveProcs from GoFunc until its last step calls
// Exit; Run's deadlock check reads that count.
type Task struct {
	k      *Kernel
	name   string
	exited bool
}

// arenaBlock batches Task storage: a system spawns a few dozen threads
// at setup, so block storage turns one heap object per spawn into one
// per block. Blocks are replaced when full, never grown in place, so
// *Task pointers stay valid.
const arenaBlock = 16

// GoFunc spawns a thread whose first step, fn(arg), runs at the current
// tick: it schedules exactly one start event.
func (k *Kernel) GoFunc(name string, fn func(uint64), arg uint64) *Task {
	if k.tasks == nil {
		k.tasks = k.tasks0[:0]
		k.taskArena = k.taskArena0[:0]
	}
	if len(k.taskArena) == cap(k.taskArena) {
		k.taskArena = make([]Task, 0, arenaBlock)
	}
	k.taskArena = k.taskArena[:len(k.taskArena)+1]
	t := &k.taskArena[len(k.taskArena)-1]
	*t = Task{k: k, name: name}
	k.tasks = append(k.tasks, t)
	k.live++
	k.AfterFunc(0, fn, arg)
	return t
}

// Exit ends the thread: its last step calls Exit. Exiting an exited (or
// drained) thread is a no-op.
func (t *Task) Exit() {
	if t.exited {
		return
	}
	t.exited = true
	t.k.live--
}

// Name reports the thread name given to GoFunc.
func (t *Task) Name() string { return t.name }

// Now reports the current simulated tick.
func (t *Task) Now() uint64 { return t.k.now }

// Exited reports whether the thread has exited or been drained.
func (t *Task) Exited() bool { return t.exited }
