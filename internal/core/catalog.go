package core

import (
	"fmt"
	"sync"

	"repro/internal/qos"
	"repro/internal/task"
)

// Catalog is the shared application metadata every node knows a priori:
// QoS specs by name and demand models by reference. The paper assumes
// applications publish "a reasonably accurate analysis of their resource
// requirements ... made a priori"; the catalog is that published
// analysis, so CFPs only need to carry names, not models.
type Catalog struct {
	mu      sync.RWMutex
	specs   map[string]*qos.Spec
	demands map[string]task.DemandModel
}

// NewCatalog builds an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{specs: make(map[string]*qos.Spec), demands: make(map[string]task.DemandModel)}
}

// AddSpec registers a validated spec under its name.
func (c *Catalog) AddSpec(s *qos.Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.specs[s.Name]; dup {
		return fmt.Errorf("core: catalog already has spec %q", s.Name)
	}
	c.specs[s.Name] = s
	return nil
}

// AddDemand registers a demand model under a reference name.
func (c *Catalog) AddDemand(ref string, dm task.DemandModel) error {
	if dm == nil {
		return fmt.Errorf("core: nil demand model for %q", ref)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.demands[ref]; dup {
		return fmt.Errorf("core: catalog already has demand %q", ref)
	}
	c.demands[ref] = dm
	return nil
}

// Spec resolves a spec by name.
func (c *Catalog) Spec(name string) (*qos.Spec, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.specs[name]
	return s, ok
}

// Demand resolves a demand model by reference.
func (c *Catalog) Demand(ref string) (task.DemandModel, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.demands[ref]
	return d, ok
}

// RegisterService validates the service, adds its spec (if absent) and
// registers each task's demand model under the task's demand reference
// (task.Task.Ref: the shared DemandRef, or "svc/task"); the first
// registration of a reference wins.
func (c *Catalog) RegisterService(s *task.Service) error {
	if err := s.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	if _, ok := c.specs[s.Spec.Name]; !ok {
		c.specs[s.Spec.Name] = s.Spec
	}
	c.mu.Unlock()
	for _, t := range s.Tasks {
		ref := t.Ref(s.ID)
		c.mu.Lock()
		if _, dup := c.demands[ref]; !dup {
			c.demands[ref] = t.Demand
		}
		c.mu.Unlock()
	}
	return nil
}
