package btsim

import "stratmatch/internal/telemetry"

// tracker is the swarm's membership registry: the set of present peer ids,
// with O(1) register/unregister (swap-delete) and uniform random sampling
// for neighbor handout. It models a BitTorrent tracker: peers announce on
// arrival (and re-announce when under-connected) and receive a random
// subset of the currently registered swarm.
//
// full mirrors the present set bit for bit: bit i is set exactly when
// present[i] sits at the MaxNeighbors degree cap (deg ≥ edgeCap), and no bit
// at or past len(present) is set. The handout rejects saturated draws on
// this bit alone — one cached word instead of the present → slot → deg
// chase — so addEdge and removeEdgeHalf flip a registered peer's bit when
// its degree crosses the cap. It is derived state: checkpoints do not carry
// it, LoadCheckpoint rebuilds it from deg.
type tracker struct {
	present []int32  // present peer ids, order irrelevant
	pos     []int32  // id → index in present, −1 when absent
	full    []uint64 // present-indexed saturation bitmap
}

func (s *Swarm) trackerRegister(id int) {
	for len(s.trk.pos) < len(s.peers) {
		s.trk.pos = append(s.trk.pos, -1)
	}
	i := len(s.trk.present)
	s.trk.pos[id] = int32(i)
	s.trk.present = append(s.trk.present, int32(id))
	if i>>6 == len(s.trk.full) {
		s.trk.full = append(s.trk.full, 0)
	}
	bmPut(s.trk.full, i, s.deg[s.peers[id].slot] >= s.edgeCap)
}

func (s *Swarm) trackerUnregister(id int) {
	i := s.trk.pos[id]
	last := int32(len(s.trk.present) - 1)
	moved := s.trk.present[last]
	s.trk.present[i] = moved
	s.trk.pos[moved] = i
	s.trk.present = s.trk.present[:last]
	s.trk.pos[id] = -1
	bmPut(s.trk.full, int(i), bmGet(s.trk.full, int(last)))
	bmClear(s.trk.full, int(last))
}

// trackerDegreeChanged keeps a registered peer's saturation bit in step
// with its degree; unregistered peers (crashed, awaiting the sweep) have no
// bit.
func (s *Swarm) trackerDegreeChanged(p *peer) {
	if i := s.trk.pos[p.id]; i >= 0 {
		bmPut(s.trk.full, int(i), s.deg[p.slot] >= s.edgeCap)
	}
}

// rebuildFull recomputes the saturation bitmap from deg (checkpoint
// resume). A present id without a slot — only a corrupt checkpoint holds
// one, and the resume audit rejects it — counts as unsaturated.
func (s *Swarm) rebuildFull() {
	s.trk.full = make([]uint64, bmWords(len(s.trk.present)), bmWords(s.slotCap))
	for i, id := range s.trk.present {
		if sl := s.peers[id].slot; sl >= 0 && s.deg[sl] >= s.edgeCap {
			bmSet(s.trk.full, i)
		}
	}
}

// Announce asks the tracker for neighbors: it hands peer id uniformly
// random present peers until the announcer holds NeighborCount connections
// (incoming introductions count towards the target), skipping itself,
// existing neighbors, and peers already at their MaxNeighbors degree cap.
// Introductions are symmetric — both sides learn each other, like a real
// tracker response followed by a handshake. The number of connections added
// is returned. Announce is a no-op for departed or out-of-range ids.
//
// With the fault layer armed, an announce fails outright during a tracker
// outage (consuming no randomness) and is dropped with the current loss
// probability otherwise; failures schedule a jittered exponential-backoff
// retry (see faultState.announceFailed). While a partition is active the
// handout only introduces peers on the announcer's side.
func (s *Swarm) Announce(id int) int {
	if id < 0 || id >= len(s.peers) || s.peers[id].departed {
		return 0
	}
	p := &s.peers[id]
	if p.slot < 0 {
		// The peer's slot has been recycled out from under it — a stale
		// re-announce replayed across a checkpoint/resume boundary can do
		// this. Touching the CSR arrays would read another occupant's block,
		// so the announce is a guarded no-op instead.
		return 0
	}
	s.tel.Inc(telemetry.CtrAnnounces)
	if f := s.flt; f != nil {
		if f.trackerDown || (f.lossRate > 0 && f.r.Bool(f.lossRate)) {
			f.announceFailed(p.slot, s.round)
			s.tel.Inc(telemetry.CtrAnnounceFailures)
			return 0
		}
		f.announceOK(p.slot)
	}
	// The selection loop itself is the shared HandoutPolicy (handout.go):
	// the trackerd service registry runs the identical policy, so served
	// handouts match in-sim ones draw for draw.
	hp := HandoutPolicy{NeighborCount: s.opt.NeighborCount, MaxNeighbors: s.opt.MaxNeighbors}
	added, draws := hp.Handout((*swarmHandout)(s), s.r, int32(id))
	s.tel.Add(telemetry.CtrAnnounceEdges, added)
	s.tel.Add(telemetry.CtrHandoutDraws, draws)
	return added
}

// ReannounceUnderConnected lets present peers whose degree fell below the
// tracker target (departures eat neighborhoods) re-announce for a fresh
// handout. Peers are staggered by id over the interval — each call only
// processes ids scheduled for the current round, like independent client
// announce timers; interval <= 1 processes every under-connected peer. The
// total number of connections added is returned.
func (s *Swarm) ReannounceUnderConnected(interval int) int {
	target := s.opt.NeighborCount
	if max := len(s.trk.present) - 1; target > max {
		target = max // a drained swarm cannot offer more neighbors
	}
	added := 0
	for i := 0; i < len(s.trk.present); i++ {
		id := int(s.trk.present[i])
		if interval > 1 && (s.round+id)%interval != 0 {
			continue
		}
		sl := s.peers[id].slot
		if sl < 0 {
			continue // slot recycled under a stale registry entry; see Announce
		}
		if f := s.flt; f != nil && f.retryAt[sl] >= 0 {
			continue // in announce backoff; the retry pass owns the schedule
		}
		if int(s.deg[sl]) < target {
			added += s.Announce(id)
		}
	}
	return added
}
