package net

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/task"
)

// NodeConfig assembles one networked node.
type NodeConfig struct {
	// Endpoint configures the TCP transport.
	Endpoint Config
	// Provider configures the node's QoS Provider.
	Provider core.ProviderConfig
	// Retry enables the at-least-once reliability layer, exactly as on
	// the other runtimes; over real sockets it doubles as the re-dial
	// schedule for transiently unreachable peers.
	Retry proto.RetryConfig
}

// Node is one networked device: the shared core.Host — the assembly
// the simulator and the goroutine runtime also run — driven by an
// Endpoint's inbox, plus the catalog push that stands in for the
// out-of-band catalog the in-process runtimes share.
type Node struct {
	*core.Host
	Endpoint *Endpoint

	quit     chan struct{}
	done     chan struct{}
	started  atomic.Bool
	stopOnce sync.Once
}

// NewNode builds a node; Start brings it onto the fabric.
func NewNode(cfg NodeConfig) *Node {
	ep := NewEndpoint(cfg.Endpoint)
	return &Node{
		Host:     core.NewHost(ep, ep.Timers(), core.NewCatalog(), ep.Obs(), resource.NewSet(ep.cfg.Capacity), cfg.Provider, cfg.Retry),
		Endpoint: ep,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start begins listening (when a listen address is configured) and
// starts the dispatch loop.
func (n *Node) Start() error {
	if n.Endpoint.cfg.ListenAddr != "" {
		if err := n.Endpoint.Listen(); err != nil {
			return err
		}
	}
	n.started.Store(true)
	go n.loop()
	return nil
}

// Close tears the node down: the endpoint first (so no further
// deliveries arrive), then the dispatch loop. Close is idempotent.
func (n *Node) Close() error {
	err := n.Endpoint.Close()
	n.stopOnce.Do(func() { close(n.quit) })
	if n.started.Load() {
		<-n.done
	}
	return err
}

// loop drains the endpoint inbox; it is the single goroutine that
// touches the dedup window and the protocol state machines, matching
// the live runtime's one-loop-per-node discipline.
func (n *Node) loop() {
	defer close(n.done)
	for {
		select {
		case <-n.quit:
			return
		case d := <-n.Endpoint.Inbox():
			n.handle(d.From, d.Msg)
		}
	}
}

// handle is the node's receive path: fabric control messages are
// applied here, everything else goes to the host. A catalog push skips
// the dedup window: applying one twice is a no-op.
func (n *Node) handle(from radio.NodeID, m proto.Msg) {
	inner, _ := proto.Unwrap(m)
	if cu, ok := inner.(*proto.CatalogUpdate); ok {
		n.applyCatalog(cu)
		return
	}
	n.Deliver(from, m)
}

// applyCatalog installs pushed specs and demand models, idempotently:
// entries already present are kept (first registration wins, matching
// core.Catalog.RegisterService).
func (n *Node) applyCatalog(cu *proto.CatalogUpdate) {
	cat := n.Catalog()
	for _, raw := range cu.Specs {
		s, err := qos.DecodeSpec(raw)
		if err != nil {
			n.Endpoint.emit("catalog-error", fmt.Sprintf("bad spec: %v", err))
			continue
		}
		if _, ok := cat.Spec(s.Name); ok {
			continue
		}
		if err := cat.AddSpec(s); err != nil {
			n.Endpoint.emit("catalog-error", err.Error())
		}
	}
	for i := range cu.Demands {
		d := &cu.Demands[i]
		if _, ok := cat.Demand(d.Ref); ok {
			continue
		}
		ld := &task.LinearDemand{Base: d.Base}
		if len(d.Coef) > 0 {
			ld.Coef = make(map[qos.AttrKey]resource.Vector, len(d.Coef))
			for _, c := range d.Coef {
				ld.Coef[qos.AttrKey{Dim: c.Dim, Attr: c.Attr}] = c.Vec
			}
		}
		if err := cat.AddDemand(d.Ref, ld); err != nil {
			n.Endpoint.emit("catalog-error", err.Error())
		}
	}
}

// CatalogUpdateFor builds the catalog push for one service: its spec's
// canonical JSON plus one demand entry per distinct task reference.
// Only task.LinearDemand crosses the wire; other models would need
// their own serialization.
func CatalogUpdateFor(svc *task.Service) (*proto.CatalogUpdate, error) {
	if err := svc.Validate(); err != nil {
		return nil, err
	}
	raw, err := qos.EncodeSpec(svc.Spec)
	if err != nil {
		return nil, err
	}
	cu := &proto.CatalogUpdate{Specs: [][]byte{raw}}
	seen := make(map[string]bool, len(svc.Tasks))
	for _, t := range svc.Tasks {
		ref := t.Ref(svc.ID)
		if seen[ref] {
			continue
		}
		seen[ref] = true
		ld, ok := t.Demand.(*task.LinearDemand)
		if !ok {
			return nil, fmt.Errorf("net: demand %q is %T; only LinearDemand is wire-serializable", ref, t.Demand)
		}
		entry := proto.DemandEntry{Ref: ref, Base: ld.Base}
		keys := make([]qos.AttrKey, 0, len(ld.Coef))
		for k := range ld.Coef {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Dim != keys[j].Dim {
				return keys[i].Dim < keys[j].Dim
			}
			return keys[i].Attr < keys[j].Attr
		})
		for _, k := range keys {
			entry.Coef = append(entry.Coef, proto.AttrVector{Dim: k.Dim, Attr: k.Attr, Vec: ld.Coef[k]})
		}
		cu.Demands = append(cu.Demands, entry)
	}
	return cu, nil
}

// Submit starts a negotiation from this node: the service's catalog
// entries are pushed to every reachable peer (frames are ordered per
// connection, so the push lands before the CFP), then the organizer
// broadcasts its call for proposals to in-process and remote providers
// alike. onFormed fires on each completed (re)formation attempt, from a
// timer goroutine.
func (n *Node) Submit(svc *task.Service, cfg core.OrganizerConfig, onFormed func(*core.Result)) (*core.Organizer, error) {
	cu, err := CatalogUpdateFor(svc)
	if err != nil {
		return nil, err
	}
	o, err := n.Organize(svc, cfg, onFormed)
	if err != nil {
		return nil, err
	}
	// Push errors are advisory: a dead daemon simply won't propose, and
	// the endpoint already counted and traced the failure.
	_ = n.Endpoint.Broadcast(cu)
	o.Start()
	return o, nil
}
