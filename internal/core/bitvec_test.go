package core

import (
	"testing"
	"testing/quick"
)

func TestBitVectorBasics(t *testing.T) {
	v := NewBitVector(70) // spans two words
	if v.Len() != 70 || v.Count() != 0 || v.Full() {
		t.Fatalf("fresh vector: len=%d count=%d full=%v", v.Len(), v.Count(), v.Full())
	}
	if !v.Set(0) || !v.Set(69) || !v.Set(63) || !v.Set(64) {
		t.Fatal("Set reported already-set for fresh bits")
	}
	if v.Set(0) {
		t.Fatal("re-Set reported newly set")
	}
	if v.Count() != 4 {
		t.Fatalf("count = %d", v.Count())
	}
	if !v.Get(64) || v.Get(1) {
		t.Fatal("Get wrong")
	}
	missing := v.AppendMissing(nil)
	if len(missing) != 66 {
		t.Fatalf("missing %d bits", len(missing))
	}
	for _, b := range missing {
		if b == 0 || b == 63 || b == 64 || b == 69 {
			t.Fatalf("missing includes set bit %d", b)
		}
	}
	v.Clear()
	if v.Count() != 0 || v.Get(64) {
		t.Fatal("Clear incomplete")
	}
}

func TestBitVectorFull(t *testing.T) {
	v := NewBitVector(3)
	for i := 0; i < 3; i++ {
		if v.Full() {
			t.Fatalf("full at %d/3", i)
		}
		v.Set(i)
	}
	if !v.Full() || v.AppendMissing(nil) != nil {
		t.Fatal("not full after setting all")
	}
	// Zero-length vector is trivially full.
	if !NewBitVector(0).Full() {
		t.Fatal("empty vector not full")
	}
}

func TestBitVectorGuards(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative size": func() { NewBitVector(-1) },
		"set range":     func() { NewBitVector(4).Set(4) },
		"get range":     func() { NewBitVector(4).Get(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: Count always equals the number of distinct indices set, and
// Missing is exactly the complement.
func TestBitVectorProperty(t *testing.T) {
	f := func(nRaw uint8, idxs []uint8) bool {
		n := int(nRaw)%100 + 1
		v := NewBitVector(n)
		ref := map[int]bool{}
		for _, raw := range idxs {
			i := int(raw) % n
			v.Set(i)
			ref[i] = true
		}
		if v.Count() != len(ref) {
			return false
		}
		if v.Full() != (len(ref) == n) {
			return false
		}
		for _, m := range v.AppendMissing(nil) {
			if ref[m] {
				return false
			}
		}
		return len(v.AppendMissing(nil)) == n-len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
