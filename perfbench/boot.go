package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/netpeer"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/store"
	"repro/internal/swarm"
	"repro/pdms"
)

// system is one booted network: a loopback netpeer server per peer, a
// spec-only mediator at which queries are posed, and an executor that has
// discovered every peer. Each component registers into its own obs
// registry, so per-layer counters can be summed across peers.
type system struct {
	in      *input
	med     *pdms.Network
	exec    *netpeer.Executor
	servers []*netpeer.Server
	addrs   []string
	dirs    []*store.Dir // per peer; nil unless the peer replays a journal

	medReg    *obs.Registry   // pdms.* and the mediator's idle local engine
	clientReg *obs.Registry   // wire.* and fragcache.* (executor)
	srvRegs   []*obs.Registry // server.* and engine.*, one per peer
	storeRegs []*obs.Registry // storage.*, one per journaled peer
}

// journalDir is peer i's journal directory under root.
func journalDir(root string, peer int) string {
	return filepath.Join(root, fmt.Sprintf("peer%d", peer))
}

// writeJournals journals every storing peer's facts under root, the input
// a journaled workload replays at set-up. It runs once per run, before any
// timing starts.
func writeJournals(in *input, root string) error {
	if err := os.RemoveAll(root); err != nil {
		return err
	}
	for _, i := range in.stores {
		d, err := store.Open(journalDir(root, i), store.Options{})
		if err != nil {
			return err
		}
		ins, _, err := d.Recover(0)
		if err != nil {
			return errors.Join(err, d.Close())
		}
		d.Attach(ins)
		for _, t := range in.spec.Facts[i] {
			if _, err := ins.Add(swarm.PeerStored(i), t); err != nil {
				return errors.Join(err, d.Close())
			}
		}
		if err := d.Close(); err != nil {
			return err
		}
	}
	return nil
}

// boot starts the network for in. With journalRoot set, storing peers
// replay their journal (store.Open, Recover, Attach) before serving it;
// each replay is recorded as a span under parent. On error everything
// started so far is shut down.
func boot(in *input, journalRoot string, tr *tracer, parent *span) (*system, error) {
	med, err := pdms.Load(in.spec.Mediator)
	if err != nil {
		return nil, fmt.Errorf("loading mediator: %w", err)
	}
	s := &system{
		in:        in,
		med:       med,
		exec:      netpeer.NewExecutor(),
		medReg:    obs.NewRegistry(),
		clientReg: obs.NewRegistry(),
		dirs:      make([]*store.Dir, in.spec.Params.Peers),
	}
	med.RegisterMetrics(s.medReg)
	s.exec.RegisterMetrics(s.clientReg)
	for i := 0; i < in.spec.Params.Peers; i++ {
		data, err := s.peerData(i, journalRoot, tr, parent)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("peer %d data: %w", i, err), s.close())
		}
		srv := netpeer.NewServer(data)
		reg := obs.NewRegistry()
		srv.RegisterMetrics(reg)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(fmt.Errorf("starting peer %d: %w", i, err), s.close())
		}
		s.servers = append(s.servers, srv)
		s.srvRegs = append(s.srvRegs, reg)
		s.addrs = append(s.addrs, addr)
	}
	for i, addr := range s.addrs {
		if err := s.exec.Discover(addr); err != nil {
			return nil, errors.Join(fmt.Errorf("discovering peer %d: %w", i, err), s.close())
		}
	}
	return s, nil
}

// peerData builds peer i's served instance: its facts in memory, or the
// replayed journal when the workload journals.
func (s *system) peerData(i int, journalRoot string, tr *tracer, parent *span) (*rel.Instance, error) {
	if !s.in.spec.Stored[i] || journalRoot == "" {
		data := rel.NewInstance()
		for _, t := range s.in.spec.Facts[i] {
			if _, err := data.Add(swarm.PeerStored(i), t); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	d, err := store.Open(journalDir(journalRoot, i), store.Options{})
	if err != nil {
		return nil, err
	}
	sp := tr.child(parent, "store.Dir.Recover")
	data, _, err := d.Recover(0)
	tr.end(sp)
	if err != nil {
		return nil, errors.Join(err, d.Close())
	}
	d.Attach(data)
	s.dirs[i] = d
	reg := obs.NewRegistry()
	store.RegisterMetrics(reg, d)
	s.storeRegs = append(s.storeRegs, reg)
	return data, nil
}

// close shuts down the executor, the servers and the journals (flushing
// and syncing their segments).
func (s *system) close() error {
	var errs []error
	errs = append(errs, s.exec.Close())
	for _, srv := range s.servers {
		errs = append(errs, srv.Close())
	}
	for _, d := range s.dirs {
		if d != nil {
			errs = append(errs, d.Close())
		}
	}
	return errors.Join(errs...)
}
