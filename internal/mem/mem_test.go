package mem

import (
	"testing"
	"testing/quick"

	"spamer/internal/config"
	"spamer/internal/sim"
)

func TestLineFillTakeCycle(t *testing.T) {
	k := sim.New()
	l := NewLine(k, 64)
	if l.State != LineEmpty {
		t.Fatalf("new line state = %v", l.State)
	}
	msg := Message{Src: 1, Seq: 7, Payload: 42}
	if !l.TryFill(msg) {
		t.Fatal("fill on empty line failed")
	}
	if l.State != LineValid {
		t.Fatalf("state after fill = %v", l.State)
	}
	if l.TryFill(Message{}) {
		t.Fatal("fill on valid line succeeded (should miss)")
	}
	got := l.Take()
	if got != msg {
		t.Fatalf("Take = %+v, want %+v", got, msg)
	}
	if l.State != LineEmpty {
		t.Fatalf("state after take = %v", l.State)
	}
	if l.Fills() != 1 || l.Vacates() != 1 {
		t.Fatalf("fills=%d vacates=%d", l.Fills(), l.Vacates())
	}
}

func TestTakeOnEmptyPanics(t *testing.T) {
	k := sim.New()
	l := NewLine(k, 64)
	defer func() {
		if recover() == nil {
			t.Error("Take on empty line did not panic")
		}
	}()
	l.Take()
}

func TestOccupancyIntegrals(t *testing.T) {
	k := sim.New()
	l := NewLine(k, 64)
	k.AtFunc(100, func(uint64) {
		if !l.TryFill(Message{}) {
			t.Error("fill failed")
		}
	}, 0)
	k.AtFunc(250, func(uint64) { l.Take() }, 0)
	k.AtFunc(300, func(uint64) {
		empty, valid := l.Occupancy()
		if empty != 100+50 {
			t.Errorf("empty = %d, want 150", empty)
		}
		if valid != 150 {
			t.Errorf("valid = %d, want 150", valid)
		}
	}, 0)
	k.Run()
}

func TestEvictionBlocksFill(t *testing.T) {
	k := sim.New()
	l := NewLine(k, 64)
	l.Evict()
	if l.State != LineEvicted {
		t.Fatalf("state = %v", l.State)
	}
	if l.TryFill(Message{}) {
		t.Fatal("fill succeeded on evicted line")
	}
	l.Touch()
	if l.State != LineEmpty {
		t.Fatalf("state after touch = %v", l.State)
	}
	if !l.TryFill(Message{}) {
		t.Fatal("fill failed after touch")
	}
	if l.Evictions() != 1 {
		t.Fatalf("evictions = %d", l.Evictions())
	}
}

func TestEvictValidWritesBack(t *testing.T) {
	k := sim.New()
	l := NewLine(k, 64)
	l.TryFill(Message{Payload: 9})
	l.Evict()
	if l.TryFill(Message{Payload: 1}) {
		t.Fatal("fill succeeded on evicted line")
	}
	l.Touch()
	// The unconsumed message was written back and restored.
	if l.State != LineValid || l.Msg.Payload != 9 {
		t.Fatalf("state = %v msg = %+v", l.State, l.Msg)
	}
	if got := l.Take(); got.Payload != 9 {
		t.Fatalf("Take = %+v", got)
	}
}

func TestOnFillSignal(t *testing.T) {
	k := sim.New()
	l := NewLine(k, 64)
	var woke uint64
	// The consumer is a step machine that waits on OnFill until the
	// line is valid.
	var task *sim.Task
	var cell sim.WaitCell
	check := func(uint64) {
		if l.State != LineValid {
			l.OnFill.WaitCell(&cell, 0)
			return
		}
		woke = k.Now()
		task.Exit()
	}
	cell.Init(k, check)
	task = k.GoFunc("consumer", check, 0)
	k.AtFunc(40, func(uint64) { l.TryFill(Message{}) }, 0)
	k.Run()
	if woke != 40 {
		t.Fatalf("woke at %d, want 40", woke)
	}
}

func TestTraceHooks(t *testing.T) {
	k := sim.New()
	l := NewLine(k, 64)
	var fills, vacates, uses int
	l.SetTraceHooks(
		func(tick uint64, msg Message) { fills++ },
		func(tick uint64) { vacates++ },
		func(tick uint64, msg Message) { uses++ },
	)
	l.TryFill(Message{})
	l.NoteFirstUse(l.Msg)
	l.Take()
	if fills != 1 || vacates != 1 || uses != 1 {
		t.Fatalf("fills=%d vacates=%d uses=%d", fills, vacates, uses)
	}
}

func TestAddressSpacePagesDisjoint(t *testing.T) {
	k := sim.New()
	as := NewAddressSpace(k)
	seen := map[Addr]bool{}
	for i := 0; i < 10; i++ {
		pg := as.NewPage(8)
		for _, l := range pg.Lines {
			if seen[l.Addr] {
				t.Fatalf("duplicate address %#x", uint64(l.Addr))
			}
			seen[l.Addr] = true
			if uint64(l.Addr)%config.LineBytes != 0 {
				t.Fatalf("misaligned address %#x", uint64(l.Addr))
			}
			if as.Lookup(l.Addr) != l {
				t.Fatal("Lookup returned a different line")
			}
		}
	}
	if as.NumLines() != 80 {
		t.Fatalf("NumLines = %d, want 80", as.NumLines())
	}
}

func TestLookupUnknownPanics(t *testing.T) {
	k := sim.New()
	as := NewAddressSpace(k)
	defer func() {
		if recover() == nil {
			t.Error("Lookup of unknown address did not panic")
		}
	}()
	as.Lookup(Addr(0xdead000))
}

// Property: for any interleaving of fills and takes, occupancy integrals
// sum to elapsed time, and fills-vacates matches the final state.
func TestOccupancyConservationProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		if len(gaps) > 100 {
			gaps = gaps[:100]
		}
		k := sim.New()
		l := NewLine(k, 64)
		tick := uint64(0)
		valid := false
		for i, g := range gaps {
			tick += uint64(g)
			v := valid
			if i%2 == 0 {
				k.AtFunc(tick, func(uint64) { l.TryFill(Message{}) }, 0)
				valid = true
			} else if v {
				k.AtFunc(tick, func(uint64) {
					if l.State == LineValid {
						l.Take()
					}
				}, 0)
				valid = false
			}
		}
		end := tick + 10
		ok := true
		k.AtFunc(end, func(uint64) {
			empty, validTicks := l.Occupancy()
			if empty+validTicks != end {
				ok = false
			}
			delta := l.Fills() - l.Vacates()
			if l.State == LineValid && delta != 1 {
				ok = false
			}
			if l.State == LineEmpty && delta != 0 {
				ok = false
			}
		}, 0)
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOccupancyHelper(t *testing.T) {
	k := sim.New()
	as := NewAddressSpace(k)
	pg := as.NewPage(3)
	k.AtFunc(10, func(uint64) { pg.Lines[0].TryFill(Message{}) }, 0)
	k.AtFunc(20, func(uint64) { pg.Lines[1].TryFill(Message{}) }, 0)
	k.AtFunc(30, func(uint64) {
		empty, valid := Occupancy(pg.Lines)
		// line0: 10 empty + 20 valid; line1: 20 + 10; line2: 30 + 0.
		if empty != 60 || valid != 30 {
			t.Errorf("empty=%d valid=%d, want 60/30", empty, valid)
		}
	}, 0)
	k.Run()
}
