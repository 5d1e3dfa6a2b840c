package registry

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/semantics"
)

// This file implements the sharded, multi-tenant registry core. The
// public Registry type is a tenant-bound view over a Store: many logical
// environments (tenants) share one process and one shard array, and the
// single lock domain of the original registry becomes one RWMutex per
// shard so Publish/Withdraw and candidate lookups on unrelated
// capabilities never contend.
//
// Placement: a capability concept (and its index entry and epoch
// counter) lives in the shard its (tenant, concept) pair hashes to; a
// service's directory entry lives in the shard its (tenant, id) pair
// hashes to. A service is therefore *indexed* in every shard that owns
// one of its capability-closure keys, while the description itself is
// stored once, as an immutable *storedService shared by all filings —
// readers clone on the way out exactly as before, so no aliasing is
// introduced by the sharing.
//
// Epoch semantics are unchanged from the single-lock registry but are
// now per shard: the epoch of capability key k is bumped under shard(k)'s
// write lock, before the index change for k, so a snapshot taken before
// a lookup still certifies "no candidate this lookup could see has
// changed".
//
// Read path: each shard keeps a capKey→capState sync.Map whose entries
// are created under the shard write lock and never deleted, and each
// capState carries an atomic epoch plus an epoch-tagged published
// candidate slice. Steady-state Candidates and CapabilityEpochs
// therefore acquire no locks at all — a reader loads the key's state
// (sync.Map.Load is lock-free), loads the published slice, and checks
// its epoch tag against the live epoch (writers bump the epoch and nil
// the slice before touching the index, so a tag match proves the slice
// is current). Only the first lookup after a mutation takes a shard
// read lock, to rebuild the published slice from the writer-truth index
// maps, which every Publish/Withdraw maintains from NewStore on. Each
// published slice also memoizes its resolved candidate list, so semantic
// matching and vector alignment run once per epoch (see candidates).
//
// Mutations of one service (same tenant + ID) are serialized on a
// striped mutex so a Publish/Withdraw race on the same ID cannot
// interleave its per-shard index updates with another mutation of the
// same service; mutations of different services only meet at the shard
// granularity. Stripe locks never nest inside shard locks and shard
// locks are held one at a time (the whole-store index rebuild is the one
// exception: it takes every shard lock, in index order, while holding
// rebuildMu and no stripe).

// TenantID names a logical environment sharing the store. The zero value
// is the default tenant, which every tenant-unaware caller uses.
type TenantID string

// DefaultTenant is the tenant of New and of every pre-multi-tenant call
// site.
const DefaultTenant TenantID = ""

// DefaultShards is the shard count when StoreOptions.Shards is zero.
const DefaultShards = 8

// mutationStripes is the size of the per-service mutation serialization
// table. It only bounds the number of concurrent *mutations* in flight
// (readers never touch it), so a modest fixed size is plenty.
const mutationStripes = 128

// StoreOptions configure a sharded store.
type StoreOptions struct {
	// Shards is the number of lock domains; it is rounded up to a power
	// of two. 0 means DefaultShards.
	Shards int
	// Obs, when non-nil, receives the store's shard telemetry:
	// qasom_registry_shard_lock_wait_seconds{shard} observes write-lock
	// acquisition waits (only the contended ones — the uncontended fast
	// path costs one TryLock), and qasom_registry_shard_mutations_total
	// counts Publish/Withdraw directory updates per shard.
	Obs *obs.Registry
}

// paddedMutex keeps adjacent stripe locks on separate cache lines so
// unrelated concurrent mutations never false-share a lock word.
type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

// svcKey is the tenant-scoped directory key of a service.
type svcKey struct {
	tenant TenantID
	id     ServiceID
}

// capKey is the tenant-scoped key of a capability concept: its index
// entry and its epoch counter live in the shard this key hashes to.
type capKey struct {
	tenant  TenantID
	concept semantics.ConceptID
}

// storedService is one published description plus the filing metadata
// every shard that indexes it shares. desc and keys are immutable after
// insertion (a re-publish swaps in a fresh storedService; the whole-store
// rebuild, which holds every shard lock, is the only writer of keys).
type storedService struct {
	desc   Description
	tenant TenantID
	// keys is the canonical capability closure the service is filed and
	// epoch-bumped under: its canonical capability plus every ancestor.
	// Computed once per Publish and reused for shard routing, index
	// filing and epoch bumps.
	keys []semantics.ConceptID
	// home is the shard holding the directory entry.
	home uint32
}

// capState is the lock-free read-path state of one capability key: the
// generation counter readers snapshot, and the epoch-tagged candidate
// slice they resolve against. A key's capState is never replaced, so its
// epoch survives index changes and rebuilds.
type capState struct {
	epoch atomic.Uint64
	// pub is the published candidate slice, tagged with the epoch it was
	// built at; writers nil it (before the index change, after the epoch
	// bump) so a tag match certifies the slice is current. Readers that
	// find it stale rebuild it from the index under the shard read lock.
	pub atomic.Pointer[capPublished]
}

// capPublished is one immutable snapshot of the services filed under a
// capability key. list is never mutated after the atomic store; readers
// copy before filtering or sorting. epoch is the capability epoch the
// slice was built at and gen the shard's index incarnation (pubGen) it
// was built from; the fast path demands both tags match the live values,
// because a whole-store rebuild changes index contents *without* bumping
// epochs — the epoch tag alone cannot reject a slice built before one.
type capPublished struct {
	epoch uint64
	gen   uint64
	list  []*storedService
	// resolved memoizes the candidate resolution of list (see
	// Store.candidates). It dies with the snapshot: the next epoch bump
	// or index rebuild publishes a fresh capPublished with an empty memo.
	resolved atomic.Pointer[resolvedCandidates]
}

// resolvedCandidates is one capability's candidate list resolved against
// one property set under one ontology version: matched, vector-aligned,
// cloned once and sorted. It is immutable after the atomic store.
type resolvedCandidates struct {
	ps      *qos.PropertySet
	version uint64
	list    []Candidate
}

// shard is one lock domain of the store.
type shard struct {
	// caps maps each capKey (routed to this shard) to its *capState: the
	// lock-free side of the shard. Entries are stored only under the
	// write lock and never deleted, so a Load that finds nothing proves
	// the key was never filed or bumped before the call. First field: it
	// is the hottest word of the struct.
	caps sync.Map
	// pubGen is the shard's index incarnation: bumped under the shard
	// write lock by the whole-store rebuild, which changes index
	// contents without per-key epoch bumps. Published slices carry the
	// incarnation they were built from, so a republisher delayed across
	// a rebuild can never install a pre-rebuild candidate list that the
	// (deliberately unmoved) epoch tag would otherwise accept forever.
	pubGen atomic.Uint64

	mu sync.RWMutex
	// services holds the directory entries homed here (routed by
	// (tenant, id)).
	services map[svcKey]*storedService
	// index maps each capability key owned by this shard (routed by
	// (tenant, concept)) to the services filed under it, across all home
	// shards. Writer truth; readers consume it only through capState.pub
	// or under mu.
	index map[capKey]map[ServiceID]*storedService

	// _ pads the shard past a cache line so adjacent shards' hot fields
	// (capability map, lock word) never false-share.
	_ [64]byte
}

// capStateLocked returns the shard's state for ck, creating it when
// absent. Callers hold the shard's write lock.
func (sh *shard) capStateLocked(ck capKey) *capState {
	if st := sh.capStateOf(ck); st != nil {
		return st
	}
	st := &capState{}
	sh.caps.Store(ck, st)
	return st
}

// capStateOf returns the capState for ck without any lock, or nil when
// the key has never been filed or bumped.
func (sh *shard) capStateOf(ck capKey) *capState {
	if v, ok := sh.caps.Load(ck); ok {
		return v.(*capState)
	}
	return nil
}

// republish rebuilds the epoch-tagged candidate slice for ck from the
// writer-truth index and installs it for subsequent lock-free readers.
// The epoch and index generation are read under the read lock, where
// they are stable (writers move them only under the write lock), so the
// tag pair can never claim a newer index state than the slice carries.
// The store itself runs outside the lock; a republisher delayed across
// a per-key mutation installs a slice the epoch tag rejects, and one
// delayed across a rebuild installs a slice the gen tag rejects — stale
// publications are recoverable, never served.
func (sh *shard) republish(ck capKey, st *capState) *capPublished {
	sh.mu.RLock()
	p := &capPublished{epoch: st.epoch.Load(), gen: sh.pubGen.Load()}
	set := sh.index[ck]
	p.list = make([]*storedService, 0, len(set))
	for _, ss := range set {
		p.list = append(p.list, ss)
	}
	sh.mu.RUnlock()
	st.pub.Store(p)
	return p
}

// Store is the sharded, multi-tenant registry core. Create instances
// with NewStore and obtain tenant-bound views with Tenant; the plain New
// constructor wraps a fresh single-tenant store for compatibility.
type Store struct {
	ontology *semantics.Ontology
	shards   []shard
	mask     uint32
	stripes  [mutationStripes]paddedMutex

	// gen is the store-global generation, bumped on every mutation of any
	// tenant; readers poll it with one atomic load.
	gen   atomic.Uint64
	total atomic.Int64
	// counts holds per-tenant service counts (TenantID → *atomic.Int64).
	counts sync.Map

	// Index lifecycle: maintained incrementally per shard by every
	// Publish/Withdraw; a lookup that finds the ontology version moved
	// past indexVersion forces a whole-store rebuild (concept mutations
	// change every closure).
	indexVersion  atomic.Uint64
	rebuildMu     sync.Mutex
	indexRebuilds atomic.Uint64

	// lockWait/mutations are nil without StoreOptions.Obs; shardLabels
	// pre-renders the label values so the hot path never formats.
	lockWait    *obs.HistogramVec
	mutations   *obs.CounterVec
	shardLabels []string
}

// NewStore creates a sharded multi-tenant store bound to the shared
// ontology (nil restricts matching to exact concept equality).
func NewStore(o *semantics.Ontology, opts StoreOptions) *Store {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so shard routing is a mask, not a mod.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	s := &Store{
		ontology: o,
		shards:   make([]shard, pow),
		mask:     uint32(pow - 1),
	}
	for i := range s.shards {
		s.shards[i].services = make(map[svcKey]*storedService)
		s.shards[i].index = make(map[capKey]map[ServiceID]*storedService)
	}
	if o != nil {
		s.indexVersion.Store(o.Version())
	}
	if opts.Obs != nil {
		s.lockWait = opts.Obs.HistogramVec("qasom_registry_shard_lock_wait_seconds",
			"Contended write-lock acquisition waits per registry shard.",
			[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1}, "shard")
		s.mutations = opts.Obs.CounterVec("qasom_registry_shard_mutations_total",
			"Publish/Withdraw directory mutations per registry shard.", "shard")
		s.shardLabels = make([]string, pow)
		for i := range s.shardLabels {
			s.shardLabels[i] = strconv.Itoa(i)
		}
	}
	return s
}

// Tenant returns the tenant-bound view through which one logical
// environment publishes, withdraws and resolves candidates. Views are
// cheap handles; any number may exist per tenant.
func (s *Store) Tenant(t TenantID) *Registry {
	return &Registry{store: s, tenant: t}
}

// Ontology returns the store's shared ontology (may be nil).
func (s *Store) Ontology() *semantics.Ontology { return s.ontology }

// Shards returns the number of lock domains.
func (s *Store) Shards() int { return len(s.shards) }

// Epoch returns the store-global generation: bumped on every
// Publish/Withdraw of any tenant. One atomic load.
func (s *Store) Epoch() uint64 { return s.gen.Load() }

// Len returns the number of published services across all tenants.
func (s *Store) Len() int { return int(s.total.Load()) }

// Metrics returns a snapshot of the store-wide index counters.
func (s *Store) Metrics() Metrics {
	return Metrics{
		IndexRebuilds: s.indexRebuilds.Load(),
		Shards:        len(s.shards),
	}
}

// fnvPair hashes two strings separated by a sentinel byte (FNV-1a).
func fnvPair(a, b string) uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(a); i++ {
		h = (h ^ uint32(a[i])) * prime
	}
	h = (h ^ 0xff) * prime
	for i := 0; i < len(b); i++ {
		h = (h ^ uint32(b[i])) * prime
	}
	return h
}

func (s *Store) shardOfCap(t TenantID, c semantics.ConceptID) uint32 {
	return fnvPair(string(t), string(c)) & s.mask
}

func (s *Store) shardOfID(t TenantID, id ServiceID) uint32 {
	return fnvPair(string(t), string(id)) & s.mask
}

func (s *Store) stripeFor(t TenantID, id ServiceID) *sync.Mutex {
	return &s.stripes[fnvPair(string(t), string(id))%mutationStripes].Mutex
}

// lockShard takes the shard's write lock, feeding the contended-wait
// histogram when telemetry is attached. The uncontended path costs one
// TryLock and no clock reads.
func (s *Store) lockShard(idx uint32) {
	sh := &s.shards[idx]
	if s.lockWait == nil || sh.mu.TryLock() {
		if s.lockWait == nil {
			sh.mu.Lock()
		}
		return
	}
	start := time.Now()
	sh.mu.Lock()
	s.lockWait.With(s.shardLabels[idx]).Observe(time.Since(start).Seconds())
}

func (s *Store) tenantCount(t TenantID) *atomic.Int64 {
	if v, ok := s.counts.Load(t); ok {
		return v.(*atomic.Int64)
	}
	v, _ := s.counts.LoadOrStore(t, new(atomic.Int64))
	return v.(*atomic.Int64)
}

// closureKeys computes, once, the canonical capability closure a
// description is routed, filed and epoch-bumped under: its canonical
// capability plus every (transitive) ancestor.
func (s *Store) closureKeys(c semantics.ConceptID) []semantics.ConceptID {
	if s.ontology == nil {
		return []semantics.ConceptID{c}
	}
	canon := s.ontology.Canonical(c)
	anc := s.ontology.Ancestors(canon)
	keys := make([]semantics.ConceptID, 0, 1+len(anc))
	keys = append(keys, canon)
	return append(keys, anc...)
}

// publish validates and stores a description for the tenant, replacing
// any previous version.
func (s *Store) publish(t TenantID, d Description) error {
	if err := d.Validate(); err != nil {
		return err
	}
	cp := d.clone()
	home := s.shardOfID(t, cp.ID)
	// Canonicalize once: the closure drives shard routing, index filing
	// and epoch bumps alike (satellite: no repeated canonicalization on
	// the Publish path). Keep the local — ss.keys may be rewritten by a
	// concurrent whole-store rebuild, which holds locks we no longer do.
	keys := s.closureKeys(cp.Concept)
	ss := &storedService{desc: cp, tenant: t, keys: keys, home: home}

	stripe := s.stripeFor(t, cp.ID)
	stripe.Lock()
	sk := svcKey{t, cp.ID}
	s.lockShard(home)
	old := s.shards[home].services[sk]
	s.shards[home].services[sk] = ss
	var oldKeys []semantics.ConceptID
	if old != nil {
		oldKeys = old.keys // read under the home lock: ordered vs rebuild
	}
	s.shards[home].mu.Unlock()
	s.applyIndexDelta(t, cp.ID, ss, oldKeys, keys)
	stripe.Unlock()

	s.gen.Add(1)
	if old == nil {
		s.total.Add(1)
		s.tenantCount(t).Add(1)
	}
	if s.mutations != nil {
		s.mutations.With(s.shardLabels[home]).Inc()
	}
	return nil
}

// withdraw removes a tenant's service; it reports whether the service
// was present.
func (s *Store) withdraw(t TenantID, id ServiceID) bool {
	stripe := s.stripeFor(t, id)
	stripe.Lock()
	home := s.shardOfID(t, id)
	sk := svcKey{t, id}
	s.lockShard(home)
	old := s.shards[home].services[sk]
	if old == nil {
		s.shards[home].mu.Unlock()
		stripe.Unlock()
		return false
	}
	delete(s.shards[home].services, sk)
	oldKeys := old.keys // read under the home lock: ordered vs rebuild
	s.shards[home].mu.Unlock()
	s.applyIndexDelta(t, id, nil, oldKeys, nil)
	stripe.Unlock()

	s.gen.Add(1)
	s.total.Add(-1)
	s.tenantCount(t).Add(-1)
	if s.mutations != nil {
		s.mutations.With(s.shardLabels[home]).Inc()
	}
	return true
}

// applyIndexDelta updates every shard owning a key in oldKeys ∪ newKeys:
// it unfiles the service from keys it leaves, files it (as ss) under
// keys it joins or keeps, and bumps each key's epoch — one write-lock
// acquisition per touched shard, each key's index change and epoch bump
// atomic under its shard's lock. ss == nil means withdrawal. Callers
// hold the service's mutation stripe.
func (s *Store) applyIndexDelta(t TenantID, id ServiceID, ss *storedService, oldKeys, newKeys []semantics.ConceptID) {
	process := func(idx uint32) {
		s.lockShard(idx)
		sh := &s.shards[idx]
		// bump invalidates the key for lock-free readers *before* the
		// index change: the epoch moves and the published slice is nilled
		// first, so a reader whose tag still matches is guaranteed to be
		// looking at the pre-mutation index state.
		bump := func(ck capKey) {
			st := sh.capStateLocked(ck)
			st.epoch.Add(1)
			st.pub.Store(nil)
		}
		for _, k := range oldKeys {
			if s.shardOfCap(t, k) != idx {
				continue
			}
			ck := capKey{t, k}
			bump(ck)
			if ss != nil && containsConcept(newKeys, k) {
				continue // key kept: the newKeys pass below overwrites the filing
			}
			if set := sh.index[ck]; set != nil {
				delete(set, id)
				if len(set) == 0 {
					delete(sh.index, ck)
				}
			}
		}
		if ss != nil {
			for _, k := range newKeys {
				if s.shardOfCap(t, k) != idx {
					continue
				}
				ck := capKey{t, k}
				bump(ck)
				set := sh.index[ck]
				if set == nil {
					set = make(map[ServiceID]*storedService)
					sh.index[ck] = set
				}
				set[id] = ss
			}
		}
		sh.mu.Unlock()
	}
	// Visit each touched shard exactly once, in first-appearance order.
	var visitedBuf [8]uint32
	visited := visitedBuf[:0]
	visit := func(keys []semantics.ConceptID) {
		for _, k := range keys {
			idx := s.shardOfCap(t, k)
			seen := false
			for _, v := range visited {
				if v == idx {
					seen = true
					break
				}
			}
			if seen {
				continue
			}
			visited = append(visited, idx)
			process(idx)
		}
	}
	visit(oldKeys)
	visit(newKeys)
}

func containsConcept(keys []semantics.ConceptID, c semantics.ConceptID) bool {
	for _, k := range keys {
		if k == c {
			return true
		}
	}
	return false
}

// get returns a copy of the tenant's description for id.
func (s *Store) get(t TenantID, id ServiceID) (Description, bool) {
	sh := &s.shards[s.shardOfID(t, id)]
	sh.mu.RLock()
	ss := sh.services[svcKey{t, id}]
	sh.mu.RUnlock()
	if ss == nil {
		return Description{}, false
	}
	return ss.desc.clone(), true
}

// published sets dst[i] to whether the tenant has ids[i] published,
// judged in one consistent view: the read locks of the IDs' home shards
// are held together, taken in shard-index order (the order the
// whole-store rebuild takes its write locks), so no Publish or Withdraw
// lands between two checks. Each shard is locked once, however many IDs
// it homes — RLock is not reentrant under a waiting writer.
func (s *Store) published(t TenantID, ids []ServiceID, dst []bool) []bool {
	var homesBuf [16]uint32
	homes := homesBuf[:0]
	for _, id := range ids {
		homes = append(homes, s.shardOfID(t, id))
	}
	slices.Sort(homes)
	homes = slices.Compact(homes)
	for _, idx := range homes {
		s.shards[idx].mu.RLock()
	}
	dst = dst[:0]
	for _, id := range ids {
		dst = append(dst, s.shards[s.shardOfID(t, id)].services[svcKey{t, id}] != nil)
	}
	for _, idx := range homes {
		s.shards[idx].mu.RUnlock()
	}
	return dst
}

// all returns copies of every description of the tenant (unsorted; the
// caller sorts).
func (s *Store) all(t TenantID) []Description {
	out := make([]Description, 0, s.tenantCount(t).Load())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for sk, ss := range sh.services {
			if sk.tenant != t {
				continue
			}
			out = append(out, ss.desc.clone())
		}
		sh.mu.RUnlock()
	}
	return out
}

// capabilityEpochs fills dst, in concepts order, with the current epoch
// of each capability key for the tenant — one atomic load per key, no
// locks — and appends the ontology version when one is attached. Each
// position is individually monotonic, which is all the plan cache's
// snapshot-before-lookup protocol needs: any mutation between snapshot
// and validation makes some position differ.
func (s *Store) capabilityEpochs(t TenantID, dst []uint64, concepts ...semantics.ConceptID) []uint64 {
	if dst != nil {
		dst = dst[:0]
	}
	for _, c := range concepts {
		if s.ontology != nil {
			c = s.ontology.Canonical(c)
		}
		sh := &s.shards[s.shardOfCap(t, c)]
		var e uint64
		if st := sh.capStateOf(capKey{t, c}); st != nil {
			e = st.epoch.Load()
		}
		dst = append(dst, e)
	}
	if s.ontology != nil {
		dst = append(dst, s.ontology.Version())
	}
	return dst
}

// ensureIndex rebuilds the capability index when the ontology's version
// moved past indexVersion (concept/alias mutations change every
// closure). The rebuild is the one whole-store lock: it takes every
// shard's write lock, in index order, recomputes each stored service's
// closure and refiles everything.
func (s *Store) ensureIndex() {
	if s.ontology == nil || s.indexVersion.Load() == s.ontology.Version() {
		return
	}
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	version := s.ontology.Version()
	if s.indexVersion.Load() == version {
		return
	}
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	for i := range s.shards {
		s.shards[i].index = make(map[capKey]map[ServiceID]*storedService)
	}
	for i := range s.shards {
		for sk, ss := range s.shards[i].services {
			ss.keys = s.closureKeys(ss.desc.Concept)
			for _, k := range ss.keys {
				target := &s.shards[s.shardOfCap(sk.tenant, k)]
				ck := capKey{sk.tenant, k}
				set := target.index[ck]
				if set == nil {
					set = make(map[ServiceID]*storedService)
					target.index[ck] = set
				}
				set[sk.id] = ss
			}
		}
	}
	// Existing capStates keep their epochs (a rebuild is not a mutation —
	// the ontology version, appended to every epoch snapshot, is what
	// certifies closure changes), and index keys minted by the moved
	// ontology get zero-epoch states. Index contents changed under
	// unchanged epoch values, so the incarnation bump is what retires
	// every published slice, including one a republisher that read the
	// old index stores *after* this rebuild.
	for i := range s.shards {
		sh := &s.shards[i]
		sh.pubGen.Add(1)
		for ck := range sh.index {
			sh.capStateLocked(ck)
		}
	}
	s.indexVersion.Store(version)
	s.indexRebuilds.Add(1)
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

// collect returns the published snapshot of the services filed under
// the capability: lock-free when its tags are current, or rebuilt under
// one shard read lock after a mutation. The snapshot is shared — callers
// must treat it as immutable. nil means the key was never filed.
func (s *Store) collect(t TenantID, canon semantics.ConceptID) *capPublished {
	s.ensureIndex()
	sh := &s.shards[s.shardOfCap(t, canon)]
	ck := capKey{t, canon}
	st := sh.capStateOf(ck)
	if st == nil {
		return nil // key never filed or bumped: nothing to find
	}
	if p := st.pub.Load(); p != nil && p.epoch == st.epoch.Load() && p.gen == sh.pubGen.Load() {
		return p
	}
	return sh.republish(ck, st)
}

// candidates resolves the tenant's services able to provide the required
// capability; see Registry.Candidates for the contract.
//
// The resolution (capability match, vector alignment, one clone, sort)
// runs once per published snapshot and property set: it is memoized on
// the snapshot, tagged with ps and the ontology version, so repeat
// lookups at an unchanged epoch make no Match or VectorFor calls. The
// version is read before collect: a concurrent ontology mutation then
// leaves the memo tagged with the older version, which the next lookup
// rejects. Racing resolvers store identical lists, so last-store-wins
// is harmless. Each call copies the memoized slice (one allocation);
// the Descriptions' inner slices and the Vectors stay shared.
func (s *Store) candidates(t TenantID, required semantics.ConceptID, ps *qos.PropertySet) []Candidate {
	var version uint64
	if s.ontology != nil {
		version = s.ontology.Version()
		required = s.ontology.Canonical(required)
	}
	p := s.collect(t, required)
	if p == nil {
		return nil
	}
	r := p.resolved.Load()
	if r == nil || r.ps != ps || r.version != version {
		r = &resolvedCandidates{ps: ps, version: version, list: s.resolve(required, p.list, ps)}
		p.resolved.Store(r)
	}
	out := make([]Candidate, len(r.list))
	copy(out, r.list)
	return out
}

// resolve matches and aligns a snapshot's services against ps, sorted by
// the Candidates contract.
func (s *Store) resolve(required semantics.ConceptID, stored []*storedService, ps *qos.PropertySet) []Candidate {
	out := make([]Candidate, 0, len(stored))
	for _, ss := range stored {
		level := s.matchCapability(required, ss.desc.Concept)
		if level != semantics.MatchExact && level != semantics.MatchPlugin {
			continue
		}
		vec, err := ss.desc.VectorFor(ps, s.ontology)
		if err != nil {
			continue
		}
		out = append(out, Candidate{Service: ss.desc.clone(), Vector: vec, Match: level})
	}
	sortCandidates(out)
	return out
}

func (s *Store) matchCapability(required, offered semantics.ConceptID) semantics.MatchLevel {
	if s.ontology == nil {
		if required == offered {
			return semantics.MatchExact
		}
		return semantics.MatchFail
	}
	return s.ontology.Match(required, offered)
}
