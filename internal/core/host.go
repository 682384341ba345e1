package core

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/task"
)

// Host is one device's protocol assembly, the same on every runtime: the
// paper puts a QoS Provider answering CFPs and an organizer per locally
// requested service on each node (Section 4.1), whatever link the node is
// on. A runtime supplies what genuinely differs — the transport, the
// clock, the catalog and the counter registry — and drives the host with
// Deliver; the simulator (Cluster) and the TCP runtime (internal/net)
// both embed it.
type Host struct {
	Res      *resource.Set
	Provider *Provider

	cat      *Catalog
	tr       proto.Transport // outbound: the runtime's transport, behind Reliable when retries are on
	tm       proto.Timers
	reliable *proto.Reliable
	dedup    proto.Dedup // touched only by the goroutine that calls Deliver

	// mu guards organizers: on net, Organize and Retire run off
	// the goroutine that delivers. On the single-threaded simulator the
	// lock is uncontended.
	mu         sync.Mutex
	organizers map[string]*Organizer
	sweepAt    int                         // table size at which Organize next drops dissolved organizers
	orgSink    func(svc string) proto.Sink // persistent lookup for proto.Dispatch
}

// organizerSweepMin is the smallest table Organize bothers to sweep.
const organizerSweepMin = 16

// NewHost assembles a node over tr: the reliability envelope when retry
// is enabled — retransmitting blindly, or only on evidence of loss when
// tr is a proto.Connected transport — the provider, an empty organizer
// table, and the node's hardening counters registered into reg under
// their canonical names.
func NewHost(tr proto.Transport, tm proto.Timers, cat *Catalog, reg *obs.Registry, res *resource.Set, pcfg ProviderConfig, retry proto.RetryConfig) *Host {
	h := &Host{Res: res, cat: cat, tr: tr, tm: tm, organizers: make(map[string]*Organizer)}
	h.orgSink = func(svc string) proto.Sink {
		h.mu.Lock()
		o := h.organizers[svc]
		h.mu.Unlock()
		if o == nil {
			return nil // explicit nil interface, not a typed-nil *Organizer
		}
		return o
	}
	if retry.Enabled() {
		h.reliable = proto.NewReliable(tr, tm, retry)
		h.tr = h.reliable
		reg.Register(obs.Retransmissions, h.reliable.RetxCounter())
	} else {
		// Keep the name in every snapshot so runs with and without
		// retries stay comparable key for key.
		reg.Counter(obs.Retransmissions)
	}
	reg.Register(obs.Duplicates, &h.dedup.Duplicates)
	_, pcfg.simTransport = tr.(*simTransport)
	h.Provider = NewProvider(tr.Self(), res, cat, h.tr, tm, pcfg)
	reg.Register(obs.StaleReleases, &h.Provider.StaleReleases)
	return h
}

// Catalog exposes the application catalog the host resolves specs and
// demand models in, for pre-seeding out of band.
func (h *Host) Catalog() *Catalog { return h.cat }

// Retransmissions reports the retry sends this node's reliability layer
// issued (0 when retries are disabled).
func (h *Host) Retransmissions() uint64 {
	if h.reliable == nil {
		return 0
	}
	return h.reliable.Retransmissions()
}

// ReplayHeld reports how many sent frames this node's reliability layer
// keeps for replay: 0 with retries disabled or on a best-effort
// transport, never more than proto.DedupWindow.
func (h *Host) ReplayHeld() int {
	if h.reliable == nil {
		return 0
	}
	return h.reliable.Held()
}

// Duplicates reports the sequenced deliveries this node suppressed. On
// the goroutine-backed runtimes call it after the node's loop stopped:
// the window is owned by the delivering goroutine.
func (h *Host) Duplicates() uint64 { return h.dedup.Duplicates.Load() }

// Deliver routes one received message through the shared receive
// plumbing (proto.Dispatch): unwrap, dedup, then the provider or the
// organizer owning the service, mirroring the paper's role split. It
// reports whether a handler took the message. One goroutine at a time
// may call it.
func (h *Host) Deliver(from radio.NodeID, m proto.Msg) bool {
	return proto.Dispatch(&h.dedup, from, m, h.orgSink, h.Provider)
}

// Organize registers the service in the catalog and installs an
// organizer for it, not yet started: the runtime decides when Start runs
// (the simulator schedules it, net calls it at once). A node
// organizes a service ID at most once at a time; the duplicate is
// rejected before the catalog or the transport is touched.
//
// A dissolved organizer is done: its ID may be organized again, and the
// table forgets it without being told. Whenever the table has doubled
// since the last look, Organize drops every dissolved entry, so a
// long-lived node's table (and what its garbage collector marks) follows
// the formations in flight, not the node's history, at O(1) amortised
// per call. Until swept a dissolved organizer keeps its route and
// absorbs its coalition's late traffic; Retire forgets one at once.
func (h *Host) Organize(svc *task.Service, cfg OrganizerConfig, onFormed func(*Result)) (*Organizer, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if o, dup := h.organizers[svc.ID]; dup && o.State() != Dissolved {
		return nil, fmt.Errorf("core: node %d already organizes service %q", h.tr.Self(), svc.ID)
	}
	if len(h.organizers) >= max(h.sweepAt, organizerSweepMin) {
		for id, o := range h.organizers {
			if o.State() == Dissolved {
				delete(h.organizers, id)
			}
		}
		h.sweepAt = 2 * len(h.organizers)
	}
	if err := h.cat.RegisterService(svc); err != nil {
		return nil, err
	}
	o, err := NewOrganizer(svc, h.tr, h.tm, cfg, onFormed)
	if err != nil {
		return nil, err
	}
	h.organizers[svc.ID] = o
	return o, nil
}

// Retire forgets a dissolved organizer at once instead of at Organize's
// next sweep; the session engine retires each session as it departs, so
// a simulated node's table is exactly its live sessions. Retiring an
// organizer that is not Dissolved is an error: its timers may still fire
// and would negotiate against a detached object. Retiring an unknown or
// already retired service is a no-op.
func (h *Host) Retire(svcID string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	o, ok := h.organizers[svcID]
	if !ok {
		return nil
	}
	if st := o.State(); st != Dissolved {
		return fmt.Errorf("core: service %q on node %d is %v, not dissolved", svcID, h.tr.Self(), st)
	}
	delete(h.organizers, svcID)
	return nil
}
