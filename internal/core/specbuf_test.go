package core

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"spamer/internal/config"
	"spamer/internal/mem"
	"spamer/internal/vl"
)

func TestRegisterSingleton(t *testing.T) {
	b := NewSpecBuf(4, ZeroDelay{})
	if err := b.Register(1, 0x1000, 2); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if b.Entries() != 1 || b.FreeEntries() != 3 {
		t.Fatalf("entries=%d free=%d", b.Entries(), b.FreeEntries())
	}
	loop := b.EntriesOf(1)
	if len(loop) != 1 {
		t.Fatalf("loop = %v", loop)
	}
	e := b.Entry(loop[0])
	if e.Next != loop[0] {
		t.Fatal("singleton entry does not self-loop")
	}
}

func TestRegisterBadArgs(t *testing.T) {
	b := NewSpecBuf(4, ZeroDelay{})
	if err := b.Register(1, 0x1000, 0); err == nil {
		t.Fatal("Register with 0 lines succeeded")
	}
}

func TestRegisterExhaustion(t *testing.T) {
	b := NewSpecBuf(2, ZeroDelay{})
	if err := b.Register(1, 0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Register(1, 0x2000, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Register(1, 0x3000, 1); err == nil {
		t.Fatal("third Register on a 2-entry specBuf succeeded")
	}
}

func TestLoopFormation(t *testing.T) {
	b := NewSpecBuf(8, ZeroDelay{})
	for i := 0; i < 4; i++ {
		if err := b.Register(5, mem.Addr(0x1000*(i+1)), 1); err != nil {
			t.Fatal(err)
		}
	}
	loop := b.EntriesOf(5)
	if len(loop) != 4 {
		t.Fatalf("loop length = %d, want 4", len(loop))
	}
	// Closed loop: walking Next from any element returns after 4 steps.
	seen := map[int]bool{}
	idx := loop[0]
	for i := 0; i < 4; i++ {
		if seen[idx] {
			t.Fatalf("loop revisits %d early", idx)
		}
		seen[idx] = true
		idx = b.Entry(idx).Next
	}
	if idx != loop[0] {
		t.Fatal("loop does not close")
	}
}

func TestSelectRotatesEntries(t *testing.T) {
	b := NewSpecBuf(8, ZeroDelay{})
	b.Register(1, 0x1000, 1)
	b.Register(1, 0x2000, 1)
	var addrs []mem.Addr
	for i := 0; i < 4; i++ {
		addr, cookie, _, ok := b.SelectTarget(1, 0)
		if !ok {
			t.Fatalf("select %d failed", i)
		}
		addrs = append(addrs, addr)
		b.OnResult(cookie, true, 0) // clear on-fly
	}
	// Entries are used in turn.
	if addrs[0] == addrs[1] || addrs[0] != addrs[2] || addrs[1] != addrs[3] {
		t.Fatalf("addrs = %v", addrs)
	}
}

func TestOffsetRotationOnHit(t *testing.T) {
	b := NewSpecBuf(4, ZeroDelay{})
	b.Register(1, 0x1000, 3)
	var addrs []mem.Addr
	for i := 0; i < 6; i++ {
		addr, cookie, _, ok := b.SelectTarget(1, 0)
		if !ok {
			t.Fatal("select failed")
		}
		addrs = append(addrs, addr)
		b.OnResult(cookie, true, 0)
	}
	for i, want := range []mem.Addr{0x1000, 0x1040, 0x1080, 0x1000, 0x1040, 0x1080} {
		if addrs[i] != want {
			t.Fatalf("addrs = %#v", addrs)
		}
	}
}

func TestOffsetHoldsOnMiss(t *testing.T) {
	b := NewSpecBuf(4, ZeroDelay{})
	b.Register(1, 0x1000, 3)
	a1, c1, _, _ := b.SelectTarget(1, 0)
	b.OnResult(c1, false, 0) // miss: offset must not advance
	a2, c2, _, _ := b.SelectTarget(1, 0)
	b.OnResult(c2, true, 0)
	a3, _, _, _ := b.SelectTarget(1, 0)
	if a1 != a2 {
		t.Fatalf("miss advanced offset: %#x -> %#x", a1, a2)
	}
	if a3 != a1+config.LineBytes {
		t.Fatalf("hit did not advance offset: %#x -> %#x", a1, a3)
	}
}

// TestWeightedRoundRobin reproduces the §3.5 example: one entry with two
// targets (α, β) and another with one target (γ) on the same SQI give a
// 1:1:2 push ratio.
func TestWeightedRoundRobin(t *testing.T) {
	b := NewSpecBuf(4, ZeroDelay{})
	b.Register(1, 0x1000, 2) // α = 0x1000, β = 0x1040
	b.Register(1, 0x2000, 1) // γ = 0x2000
	counts := map[mem.Addr]int{}
	for i := 0; i < 40; i++ {
		addr, cookie, _, ok := b.SelectTarget(1, 0)
		if !ok {
			t.Fatal("select failed")
		}
		counts[addr]++
		b.OnResult(cookie, true, 0)
	}
	alpha, beta, gamma := counts[0x1000], counts[0x1040], counts[0x2000]
	if alpha != 10 || beta != 10 || gamma != 20 {
		t.Fatalf("ratio α:β:γ = %d:%d:%d, want 10:10:20", alpha, beta, gamma)
	}
}

func TestOnFlyThrottle(t *testing.T) {
	b := NewSpecBuf(4, ZeroDelay{})
	b.Register(1, 0x1000, 4)
	_, cookie, _, ok := b.SelectTarget(1, 0)
	if !ok {
		t.Fatal("first select failed")
	}
	if _, _, _, ok := b.SelectTarget(1, 0); ok {
		t.Fatal("select succeeded while entry on-fly")
	}
	b.OnResult(cookie, false, 0)
	if _, _, _, ok := b.SelectTarget(1, 0); !ok {
		t.Fatal("select failed after on-fly cleared")
	}
}

func TestSelectUnknownSQI(t *testing.T) {
	b := NewSpecBuf(4, ZeroDelay{})
	if _, _, _, ok := b.SelectTarget(9, 0); ok {
		t.Fatal("select on unregistered SQI succeeded")
	}
}

// TestSelectTargetPanicsOnBrokenLoop: with every entry on-fly, the walk
// visits the whole loop; once the loop no longer returns to specHead,
// SelectTarget panics naming the SQI instead of spinning.
func TestSelectTargetPanicsOnBrokenLoop(t *testing.T) {
	b := NewSpecBuf(4, ZeroDelay{})
	for i := 1; i <= 3; i++ {
		if err := b.Register(1, mem.Addr(i*0x1000), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, _, _, ok := b.SelectTarget(1, 0); !ok {
			t.Fatalf("select %d failed", i)
		}
	}
	loop := b.EntriesOf(1)
	b.next[loop[2]] = int32(loop[1]) // head -> 1 -> 2 -> 1 -> ...
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		b.SelectTarget(1, 0)
	}()
	select {
	case r := <-done:
		if msg, _ := r.(string); !strings.Contains(msg, "SQI 1 ") {
			t.Fatalf("SelectTarget on a broken loop: panic %v, want one naming SQI 1", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SelectTarget still walking a broken loop after 5 s")
	}
}

func TestUnregisterFreesEntries(t *testing.T) {
	b := NewSpecBuf(4, ZeroDelay{})
	b.Register(1, 0x1000, 1)
	b.Register(1, 0x2000, 1)
	b.Register(2, 0x3000, 1)
	b.Unregister(1)
	if b.Entries() != 1 || b.FreeEntries() != 3 {
		t.Fatalf("entries=%d free=%d", b.Entries(), b.FreeEntries())
	}
	if _, _, _, ok := b.SelectTarget(1, 0); ok {
		t.Fatal("select on unregistered SQI succeeded")
	}
	if _, _, _, ok := b.SelectTarget(2, 0); !ok {
		t.Fatal("unrelated SQI affected by Unregister")
	}
}

func TestOnResultAfterUnregisterIgnored(t *testing.T) {
	b := NewSpecBuf(4, ZeroDelay{})
	b.Register(1, 0x1000, 1)
	_, cookie, _, _ := b.SelectTarget(1, 0)
	b.Unregister(1)
	b.OnResult(cookie, true, 0) // must not panic or corrupt
	if b.FreeEntries() != 4 {
		t.Fatalf("free = %d", b.FreeEntries())
	}
}

func TestDelayCapEnforced(t *testing.T) {
	// An algorithm proposing an absurd send tick is clamped.
	b := NewSpecBuf(4, farFuture{})
	b.Register(1, 0x1000, 1)
	now := uint64(1000)
	_, _, tick, ok := b.SelectTarget(1, now)
	if !ok {
		t.Fatal("select failed")
	}
	if tick > now+config.DelayCapCycles {
		t.Fatalf("send tick %d beyond cap", tick)
	}
}

type farFuture struct{}

func (farFuture) Name() string                              { return "farFuture" }
func (farFuture) Initial() PredState                        { return PredState{} }
func (farFuture) SendTick(_ *PredState, now uint64) uint64  { return now + 1<<40 }
func (farFuture) OnResponse(_ *PredState, _ bool, _ uint64) {}

// Property: offsets stay within [0, Len) and the per-SQI loop stays
// closed under arbitrary register/select/result interleavings.
func TestSpecBufInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		b := NewSpecBuf(16, ZeroDelay{})
		type flight struct{ cookie int }
		var inflight []flight
		sqis := []vl.SQI{1, 2, 3}
		base := mem.Addr(0x1000)
		for _, op := range ops {
			sqi := sqis[int(op)%len(sqis)]
			switch (op / 8) % 3 {
			case 0:
				n := int(op%4) + 1
				if b.FreeEntries() > 0 {
					if err := b.Register(sqi, base, n); err != nil {
						return false
					}
					base += mem.Addr(n * config.LineBytes)
				}
			case 1:
				if _, cookie, _, ok := b.SelectTarget(sqi, uint64(op)); ok {
					inflight = append(inflight, flight{cookie})
				}
			case 2:
				if len(inflight) > 0 {
					fl := inflight[len(inflight)-1]
					inflight = inflight[:len(inflight)-1]
					b.OnResult(fl.cookie, op%2 == 0, uint64(op))
				}
			}
		}
		// Invariants.
		for _, sqi := range sqis {
			loop := b.EntriesOf(sqi)
			seen := map[int]bool{}
			for _, idx := range loop {
				if seen[idx] {
					return false
				}
				seen[idx] = true
				e := b.Entry(idx)
				if !e.Valid || e.SQI != sqi {
					return false
				}
				if e.Offset < 0 || e.Offset >= e.Len {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
