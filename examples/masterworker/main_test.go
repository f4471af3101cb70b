package main

import (
	"testing"

	"parhask/internal/eden/edentest"
	"parhask/internal/graph"
)

// An interval holds no indirection: its copy is itself.
func TestMessageCopiesShareNothing(t *testing.T) {
	edentest.CheckCopies(t, []edentest.CopyCase{
		{Name: "interval", Make: func() graph.Value { return interval{Lo: 0, Hi: 0.5} }},
	})
}
