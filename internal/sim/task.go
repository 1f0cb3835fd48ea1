package sim

// Task is a simulated thread. Its body is a chain of steps — event
// callbacks and the continuations of kernel-side operations (Cont) —
// that run on the kernel goroutine, so advancing it costs no host
// thread switch. The step function is a func(uint64) bound once,
// typically a method value of the thread's own state machine, and its
// argument selects the state: Compute and Then resume the thread
// there. A wait is a Signal.WaitCell (or Gate, or WaitAnyCell)
// registration whose wake runs the next step.
//
// A Task counts in LiveProcs from GoFunc until its last step calls
// Exit; Run's deadlock check reads that count.
type Task struct {
	k      *Kernel
	step   func(uint64)
	name   string
	exited bool
}

// GoFunc spawns a thread with step function fn; its first step,
// fn(arg), runs at the current tick: GoFunc schedules exactly one start
// event.
func (k *Kernel) GoFunc(name string, fn func(uint64), arg uint64) *Task {
	t := k.tasks.New()
	*t = Task{k: k, step: fn, name: name}
	k.live++
	k.AfterFunc(0, fn, arg)
	return t
}

// Tasks reports how many threads GoFunc has spawned.
func (k *Kernel) Tasks() int { return k.tasks.Len() }

// Compute charges d cycles of local work, then runs step next: one
// event. A zero d runs the step at once and schedules nothing.
func (t *Task) Compute(d, next uint64) {
	if d == 0 {
		t.step(next)
		return
	}
	t.k.AfterFunc(d, t.step, next)
}

// Then is the continuation that resumes the thread at step next.
func (t *Task) Then(next uint64) Cont { return Cont{Fn: t.step, Arg: next} }

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
