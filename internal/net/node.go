package net

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/task"
)

// NodeConfig assembles one networked node.
type NodeConfig struct {
	// Endpoint configures the TCP transport.
	Endpoint Config
	// Provider configures the node's QoS Provider.
	Provider core.ProviderConfig
	// Retry enables the at-least-once reliability layer. The Endpoint is
	// a proto.Connected transport, so a frame is written once and the
	// schedule runs for it only on evidence of loss: its send failed, or
	// its peer's connection went down within the schedule's span of the
	// send (DESIGN.md §12). It is then the re-dial schedule too.
	Retry proto.RetryConfig
}

// Node is one networked device: the shared core.Host — the assembly
// the simulator and the goroutine runtime also run — driven by an
// Endpoint's inbox, plus the catalog push that stands in for the
// out-of-band catalog the in-process runtimes share.
type Node struct {
	*core.Host
	Endpoint *Endpoint

	// specsSeen holds the spec documents already applied, byte for byte,
	// so a repeated push (another organizer's, or one after a reconnect)
	// is recognised without parsing it.
	specMu    sync.Mutex
	specsSeen map[string]struct{}

	quit     chan struct{}
	done     chan struct{}
	started  atomic.Bool
	stopOnce sync.Once
}

// NewNode builds a node; Start brings it onto the fabric.
func NewNode(cfg NodeConfig) *Node {
	ep := NewEndpoint(cfg.Endpoint)
	n := &Node{
		Host:      core.NewHost(ep, ep.Timers(), core.NewCatalog(), ep.Obs(), resource.NewSet(ep.cfg.Capacity), cfg.Provider, cfg.Retry),
		Endpoint:  ep,
		specsSeen: make(map[string]struct{}),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	ep.onCatalog = n.applyCatalog
	return n
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

// loop drains the endpoint inbox into the host; it is the single
// goroutine that touches the dedup window and the protocol state
// machines, matching the live runtime's one-loop-per-node discipline.
func (n *Node) loop() {
	defer close(n.done)
	for {
		select {
		case <-n.quit:
			return
		case d := <-n.Endpoint.Inbox():
			n.Deliver(d.From, d.Msg)
		}
	}
}

// applyCatalog installs pushed specs and demand models, idempotently:
// entries already present are kept (first registration wins, matching
// core.Catalog.RegisterService). It runs on the connections' read loops,
// ahead of the inbox, so the CFP that follows a push on its connection
// finds the entries in place.
func (n *Node) applyCatalog(cu *proto.CatalogUpdate) {
	cat := n.Catalog()
	n.specMu.Lock()
	for _, raw := range cu.Specs {
		if _, seen := n.specsSeen[string(raw)]; seen {
			continue
		}
		s, err := qos.DecodeSpec(raw)
		if err != nil {
			n.Endpoint.emit("catalog-error", fmt.Sprintf("bad spec: %v", err))
			continue
		}
		if _, ok := cat.Spec(s.Name); !ok {
			if err := cat.AddSpec(s); err != nil {
				n.Endpoint.emit("catalog-error", err.Error())
				continue
			}
		}
		n.specsSeen[string(raw)] = struct{}{}
	}
	n.specMu.Unlock()
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
	return catalogUpdate(svc, nil)
}

// catalogUpdate builds the push of a valid service's catalog entries
// that sent does not hold (nil: all of them); nil when none is missing.
func catalogUpdate(svc *task.Service, sent map[catalogKey]struct{}) (*proto.CatalogUpdate, error) {
	var cu *proto.CatalogUpdate
	if _, ok := sent[catalogKey{spec: true, name: svc.Spec.Name}]; !ok {
		raw, err := qos.EncodeSpec(svc.Spec)
		if err != nil {
			return nil, err
		}
		cu = &proto.CatalogUpdate{Specs: [][]byte{raw}}
	}
tasks:
	for _, t := range svc.Tasks {
		ref := t.Ref(svc.ID)
		if _, ok := sent[catalogKey{name: ref}]; ok {
			continue
		}
		if cu == nil {
			cu = &proto.CatalogUpdate{}
		}
		for i := range cu.Demands {
			if cu.Demands[i].Ref == ref {
				continue tasks
			}
		}
		ld, err := linearDemand(svc.ID, t)
		if err != nil {
			return nil, err
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

// linearDemand returns a task's demand model as the one kind that has a
// wire form.
func linearDemand(svcID string, t *task.Task) (*task.LinearDemand, error) {
	ld, ok := t.Demand.(*task.LinearDemand)
	if !ok {
		return nil, fmt.Errorf("net: demand %q is %T; only LinearDemand is wire-serializable", t.Ref(svcID), t.Demand)
	}
	return ld, nil
}

// Submit starts a negotiation from this node: the service's catalog
// entries are pushed to every reachable peer whose connection has not
// carried them yet (frames are ordered per connection, so the push lands
// before the CFP), then the organizer broadcasts its call for proposals
// to in-process and remote providers alike. onFormed fires on each
// completed (re)formation attempt, from a timer goroutine.
func (n *Node) Submit(svc *task.Service, cfg core.OrganizerConfig, onFormed func(*core.Result)) (*core.Organizer, error) {
	for _, t := range svc.Tasks {
		if _, err := linearDemand(svc.ID, t); err != nil {
			return nil, err
		}
	}
	o, err := n.Organize(svc, cfg, onFormed)
	if err != nil {
		return nil, err
	}
	n.pushCatalog(svc)
	o.Start()
	return o, nil
}

// pushCatalog sends each neighbour what its connection has not yet
// carried of the service's catalog entries — in steady state nothing,
// at the price of a few set lookups. Failures are advisory: a dead
// daemon simply won't propose, and the endpoint already counted and
// traced them.
func (n *Node) pushCatalog(svc *task.Service) {
	e := n.Endpoint
	var arr [maxStackFanout]*peer
	ps, _ := e.neighbours((&proto.CatalogUpdate{}).Kind(), arr[:0])
	for _, p := range ps {
		p.wmu.Lock()
		if cu, err := catalogUpdate(svc, p.sent); err == nil && cu != nil && e.sendLocked(p, cu) == nil {
			if len(cu.Specs) > 0 {
				p.sent[catalogKey{spec: true, name: svc.Spec.Name}] = struct{}{}
			}
			for i := range cu.Demands {
				p.sent[catalogKey{name: cu.Demands[i].Ref}] = struct{}{}
			}
		}
		p.wmu.Unlock()
	}
}
