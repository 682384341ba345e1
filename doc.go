// Package repro is a full reimplementation of Nogueira & Pinho,
// "Dynamic QoS-Aware Coalition Formation" (IPPS 2005): QoS-aware
// cooperative service allocation for wireless ad-hoc neighbourhoods of
// heterogeneous devices.
//
// The library lives under internal/ (see DESIGN.md for the module map):
//
//   - internal/qos       — the Section 3 QoS representation, Section 3.1
//     preference-ordered requests, the Section 6 multi-attribute distance
//     and the Section 5 reward function;
//   - internal/resource  — Resource Managers with reservation ledgers;
//   - internal/task      — services, tasks and demand models;
//   - internal/core      — the contribution: proposal formulation,
//     evaluation, winner selection, the Negotiation Organizer / QoS
//     Provider state machines, the coalition life cycle, and the one
//     node assembly (core.Host) every runtime embeds;
//   - internal/sim, internal/radio — deterministic discrete-event engine
//     and the simulated ad-hoc radio medium;
//   - internal/live, internal/net — the same host driven from
//     goroutines + channels and from TCP sockets;
//   - internal/baseline, internal/workload, internal/metrics,
//     internal/xp — baselines, synthetic workloads and the experiment
//     suite (E1–E16, run by a parallel sweep engine; see EXPERIMENTS.md).
//
// Entry points: cmd/qosim (single scenario), cmd/qosbench (experiment
// tables), cmd/qosspec (spec tooling); examples/ holds four runnable
// walkthroughs. The benchmarks in bench_test.go regenerate every
// experiment table via `go test -bench=.`.
package repro
