// Package lint implements hatriclint, a static-analysis suite that
// enforces the simulator's determinism and zero-allocation contracts at
// the line that would break them, instead of leaving violations to be
// discovered as opaque golden-fingerprint mismatches many PRs later.
//
// # The determinism contract
//
// The paper's evaluation rests on cycle-exact, bit-identical simulation:
// the golden fingerprints in internal/sim/golden_test.go assert that the
// same Options produce the same counters bit for bit, run after run,
// machine after machine. Three properties of the code make that true, and
// each has a dedicated analyzer:
//
//   - No iteration-order dependence. Go randomizes map iteration order, so
//     any `range` over a map whose body does more than collect keys for
//     sorting can change simulated results (or error messages) from run to
//     run. The mapiter analyzer flags such loops in the
//     determinism-critical packages; suppress with
//     `//hatric:mapiter-ok <reason>` when order provably cannot matter.
//
//   - No unseeded nondeterminism sources. All randomness must flow through
//     the seeded generators in internal/xrand; wall-clock time, math/rand,
//     environment lookups, and sync.Map iteration have no place on a
//     simulated path. The nondet analyzer bans them outright
//     (`//hatric:nondet-ok <reason>` for the rare tool-side exception) and
//     requires a rationale annotation on every sync.Map declaration.
//
//   - No allocation on the per-reference hot path. PR 5 made the steady
//     state allocation-free and TestSteadyStateZeroAllocs guards it at
//     runtime; the hotalloc analyzer moves that gate to compile time.
//     Functions annotated `//hatric:hotpath` — and every same-package
//     function they statically call — may not contain allocation-causing
//     constructs (make/new/append, escaping composite literals, interface
//     boxing, capturing closures, string concatenation, go statements).
//     Cold error paths inside hot functions carry
//     `//hatric:alloc-ok <reason>`.
//
// # Annotations
//
// All annotations are `//hatric:` directive comments (no space after the
// slashes, so gofmt and godoc treat them as directives):
//
//	//hatric:hotpath              marks a function as allocation-free
//	//hatric:mapiter-ok <reason>  suppresses mapiter / sync.Map findings
//	//hatric:nondet-ok <reason>   suppresses nondet findings
//	//hatric:alloc-ok <reason>    suppresses hotalloc findings
//
// The -ok forms require a non-empty reason and suppress findings on their
// own line and the line directly below; hatriclint reports malformed or
// misplaced annotations itself, so a typoed suppression fails the build
// rather than silently disabling a check.
//
// # Running
//
//	go run ./cmd/hatriclint ./...
//
// The binary loads packages (test variants included) via `go list
// -export`, type-checks them against the compiler's export data, runs the
// annotation check and the three analyzers, and exits nonzero if any
// diagnostic remains.
package lint
