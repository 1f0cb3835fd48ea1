package sim

// Task is a process-free simulated thread. Its body is a chain of steps
// — event callbacks and the continuations of kernel-side operations
// (Cont) — that run on the kernel goroutine, so advancing it costs no
// coroutine switch. A step is a func(uint64) bound once, typically a
// method value of the thread's own state machine, and the argument
// selects the state.
//
// A Task counts in LiveProcs from GoFunc until its last step calls
// Exit, exactly as a process counts from Go until its body returns, so
// the deadlock check and anything else reading the live count cannot
// tell the two apart.
type Task struct {
	k      *Kernel
	name   string
	exited bool
}

// GoFunc spawns a process-free thread whose first step, fn(arg), runs at
// the current tick. Like Go it schedules exactly one start event, so a
// thread spawned with GoFunc in place of Go leaves every later event's
// sequence number unchanged.
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

// Exit ends the thread: its last step calls Exit where a process body
// would return. Exiting an exited (or drained) thread is a no-op.
func (t *Task) Exit() {
	if t.exited {
		return
	}
	t.exited = true
	t.k.live--
}

// Name reports the thread name given to GoFunc.
func (t *Task) Name() string { return t.name }

// Exited reports whether the thread has exited or been drained.
func (t *Task) Exited() bool { return t.exited }
