// Package repro is the root of the Perspective reproduction: a from-scratch
// pure-Go implementation of "Perspective: A Principled Framework for Pliable
// and Secure Speculation in Operating Systems" (ISCA 2024), including the
// speculative out-of-order CPU model, the OS substrate, the DSV/ISV
// speculation-view mechanisms, the attack and auditing frameworks, and the
// benchmark harness that regenerates every table and figure of the paper's
// evaluation.
//
// Perspective's core contribution is the pair of speculation-view
// mechanisms and their hardware enforcement, kept in three sibling packages
// so each can be tested and reasoned about in isolation:
//
//   - repro/internal/dsv — Data Speculation Views: the per-context DSVMT
//     (three-level, 4KB/2MB/1GB entries) and the 128-entry ASID-tagged DSV
//     hardware cache. Ownership is written by the kernel's allocation paths
//     (repro/internal/kernel, repro/internal/buddy, repro/internal/slab).
//
//   - repro/internal/isv — Instruction Speculation Views: per-context
//     instruction-granular trusted-code bitmaps (the ISV pages of Figure
//     6.1a), the ISV hardware cache, and the pliable runtime interface
//     (install, shrink, exclude-function live patching).
//
//   - repro/internal/schemes — the hardware policy that consults both views
//     on every speculative transmitter and blocks violations until the
//     visibility point (PerspectivePolicy), alongside the baseline defenses
//     the paper compares against.
//
// Start with the public API in repro/perspective (the façade for all of
// the above), the experiment runner in cmd/perspective-sim, and the
// benchmarks in bench_test.go. DESIGN.md maps every paper artifact to its
// implementing module; EXPERIMENTS.md records paper-vs-measured results.
package repro
