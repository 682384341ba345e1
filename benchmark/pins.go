package main

// pinnedDigests are statsDigest of replication 0 at -seed 1, full size.
// A change that moves one of them changed what the simulation computes,
// not how fast: the workload is no longer the one earlier numbers were
// measured on, and the change must say so.
var pinnedDigests = map[string]uint64{
	"sim-negotiate": 0x1ea0e3b3475e1b8d,
	"sim-hold":      0xc039e62a9bd308e5,
	"sim-chaos":     0x075af94b2f816175,
}
