package queue

import (
	"testing"
	"testing/quick"
)

func TestRingPushPopOrder(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d", r.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on empty ring succeeded")
	}
}

func TestRingInterleaved(t *testing.T) {
	var r Ring[int]
	next := 0
	expect := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			v, ok := r.Pop()
			if !ok || v != expect {
				t.Fatalf("round %d: Pop = %d,%v want %d", round, v, ok, expect)
			}
			expect++
		}
	}
	for r.Len() > 0 {
		v, _ := r.Pop()
		if v != expect {
			t.Fatalf("drain: got %d want %d", v, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d items, pushed %d", expect, next)
	}
}

func TestRingFIFOProperty(t *testing.T) {
	// Any push sequence pops back in identical order.
	f := func(items []int16) bool {
		var r Ring[int16]
		for _, v := range items {
			r.Push(v)
		}
		for _, want := range items {
			got, ok := r.Pop()
			if !ok || got != want {
				return false
			}
		}
		_, ok := r.Pop()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
