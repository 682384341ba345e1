// Package adapt is the mid-session QoS renegotiation engine: it lets an
// open-system run change the QoS of *live* sessions instead of only
// blocking new ones or killing admitted ones, realizing the paper's
// run-time adaptation ("applications ... can dynamically change the
// executing quality level", Section 4) at neighbourhood scale.
//
// The engine watches three triggers and answers each by moving the
// affected sessions' tasks along their precomputed degradation paths
// (core.CompiledProblem.Path, DESIGN.md §7):
//
//   - Node churn: when a helper node drops off the air, every live
//     session with a task on it is repaired per the configured
//     ChurnPolicy — killed outright (the PR-3 behaviour made explicit),
//     migrated at its current level, or re-placed at the first stop of
//     the degradation path a reachable node can host.
//   - Utilisation pressure: when a node's utilisation crosses UtilHigh,
//     sessions holding reservations there shed QoS one path stop at a
//     time until the node recovers.
//   - Adaptation epochs: every Epoch seconds of simulated time a
//     reclamation scan upgrades previously degraded sessions back toward
//     their admission-time level wherever capacity has freed, with
//     UtilLow hysteresis so upgrades do not immediately re-trigger
//     pressure shedding.
//
// Every change is applied exactly: reservations are resized or adopted
// through the owning QoS Provider (so dissolution, reboot and ledger
// accounting see adapted sessions identically to awarded ones) and
// published to the session's Organizer via ApplyAdaptation (so sampled
// QoS distance and departure statistics report the current level, not
// the admission-time one). A live task is a position on its compiled
// problem's degradation path plus a stack of the positions it degraded
// away from, which makes degrade→upgrade round-trips exact and epoch
// scans idempotent at a fixpoint.
//
// Determinism: the engine draws no randomness. All scans iterate
// sessions in admission order, tasks in declaration order and candidate
// nodes in ascending ID, and run on the cluster's single-threaded
// virtual clock, so a run with adaptation enabled is a pure function of
// (cluster, config, seed) — the property scripts/determinism.sh checks
// for experiments E22–E24. See DESIGN.md §10 for the full design.
package adapt
