package blocks

import "testing"

type record struct {
	id   int
	name *string
}

// TestArenaPointersStayValid: records handed out across several blocks
// keep their addresses and values as the arena grows, and At finds each.
func TestArenaPointersStayValid(t *testing.T) {
	var a Arena[record]
	n := 3*Size + 5
	got := make([]*record, n)
	for i := range got {
		got[i] = a.New()
		got[i].id = i
	}
	if a.Len() != n {
		t.Fatalf("Len = %d, want %d", a.Len(), n)
	}
	for i, r := range got {
		if r.id != i || a.At(i) != r {
			t.Fatalf("record %d: id %d, At(%d) == r is %v", i, r.id, i, a.At(i) == r)
		}
	}
}

// TestArenaResetReusesZeroedBlocks: after Reset the arena is empty, New
// hands out the same storage again, every record comes back zeroed (so
// a recycled arena keeps nothing alive), and no block is allocated.
func TestArenaResetReusesZeroedBlocks(t *testing.T) {
	var a Arena[record]
	name := "kept"
	n := 2*Size + 1
	first := make([]*record, n)
	for i := range first {
		first[i] = a.New()
		*first[i] = record{id: i + 1, name: &name}
	}
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("Len after Reset = %d", a.Len())
	}
	for i, r := range first {
		if *r != (record{}) {
			t.Fatalf("record %d not zeroed by Reset: %+v", i, *r)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		a.Reset()
		for i := 0; i < n; i++ {
			if r := a.New(); r != first[i] || *r != (record{}) {
				t.Fatalf("New %d after Reset: %p %+v, want %p zeroed", i, r, *r, first[i])
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("refilling a reset arena allocated %.0f times", allocs)
	}
}

// TestResizeZeroesAndReuses: Resize hands back n zeroed elements, in the
// same array when it holds n to 2n elements and in a new one otherwise.
func TestResizeZeroesAndReuses(t *testing.T) {
	s := Resize([]int(nil), 8)
	for i := range s {
		s[i] = i + 1
	}
	small := Resize(s, 5)
	if len(small) != 5 || &small[0] != &s[0] {
		t.Fatalf("Resize to 5 of an 8-element array: len %d, same array %v", len(small), &small[0] == &s[0])
	}
	for i, v := range small {
		if v != 0 {
			t.Fatalf("element %d = %d after Resize, want 0", i, v)
		}
	}
	if big := Resize(small, 9); len(big) != 9 || &big[0] == &s[0] {
		t.Fatalf("Resize to 9 of an 8-element array: len %d, same array %v", len(big), &big[0] == &s[0])
	}
	if tiny := Resize(small, 3); len(tiny) != 3 || &tiny[0] == &s[0] {
		t.Fatalf("Resize to 3 of an 8-element array: len %d, same array %v", len(tiny), &tiny[0] == &s[0])
	}
}
