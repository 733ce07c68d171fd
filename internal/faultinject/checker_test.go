package faultinject

import (
	"errors"
	"testing"
)

func TestNoteLookaside(t *testing.T) {
	c := NewChecker(nil, nil)
	c.NoteLookaside(nil)
	if c.Count[LookasideStale] != 0 {
		t.Fatal("nil verification error must not count as a violation")
	}
	c.NoteLookaside(errors.New("entry 0x1000 diverged"))
	c.NoteLookaside(errors.New("entry 0x2000 diverged"))
	if c.Count[LookasideStale] != 2 {
		t.Fatalf("LookasideStale count = %d, want 2", c.Count[LookasideStale])
	}
	if c.Total() != 2 {
		t.Fatalf("Total() = %d, want 2", c.Total())
	}
}

func TestNoteCloneDigest(t *testing.T) {
	c := NewChecker(nil, nil)
	c.NoteCloneDigest(0xabcd, 0xabcd)
	if c.Count[CloneDiverged] != 0 {
		t.Fatal("matching digests must not count as a violation")
	}
	c.NoteCloneDigest(0xabcd, 0xabce)
	if c.Count[CloneDiverged] != 1 {
		t.Fatalf("CloneDiverged count = %d, want 1", c.Count[CloneDiverged])
	}
	if len(c.Recorded) != 1 || c.Recorded[0].VA != 0xabcd^0xabce {
		t.Fatalf("recorded violation should carry the digest delta: %+v", c.Recorded)
	}
}

func TestViolationKindStrings(t *testing.T) {
	for k := ViolationKind(0); k < NumViolationKinds; k++ {
		if k.String() == "?" {
			t.Errorf("violation kind %d has no name", k)
		}
	}
}
