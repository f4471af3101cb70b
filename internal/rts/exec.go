package rts

import "parhask/internal/exec"

// *Ctx satisfies the runtime-agnostic mutator interface structurally
// (Burn, Alloc, Par, Force, ForceDeep), so simulated programs pass a
// *Ctx wherever an exec.Ctx is expected with no adapter.
var _ exec.Ctx = (*Ctx)(nil)
