package chainsim

import (
	"bytes"
	"fmt"

	"multihonest/internal/charstring"
	"multihonest/internal/leader"
)

// TieBreak selects how honest nodes resolve ties among maximum-length
// chains.
type TieBreak int

const (
	// AdversarialTies models axiom A0: the rushing adversary orders
	// deliveries, so among equally long chains a node adopts the one the
	// strategy designates (the first received).
	AdversarialTies TieBreak = iota + 1
	// ConsistentTies models axiom A0′: all nodes apply the same
	// deterministic rule — here, smallest block hash at the tip — so equal
	// views imply equal selections.
	ConsistentTies
)

// Node is an honest protocol participant: a view of delivered blocks and a
// current best chain.
type Node struct {
	ID    int
	tip   *Block
	known map[Hash]*Block
	rule  TieBreak
}

// NewNode returns a node knowing only genesis.
func NewNode(id int, genesis *Block, rule TieBreak) *Node {
	return &Node{ID: id, tip: genesis, known: map[Hash]*Block{genesis.Hash(): genesis}, rule: rule}
}

// Tip returns the node's currently adopted best block.
func (n *Node) Tip() *Block { return n.tip }

// Knows reports whether the node has the block in view.
func (n *Node) Knows(h Hash) bool { _, ok := n.known[h]; return ok }

// Receive validates and incorporates a chain delivered as a block whose
// ancestry must already be known or included in ancestry order. It returns
// an error and ignores the block when validation fails; on success it
// applies the longest-chain rule.
func (n *Node) Receive(b *Block, keys *Keyring, elig Eligibility) error {
	if _, ok := n.known[b.Hash()]; ok {
		return nil
	}
	parent, ok := n.known[b.Parent]
	if !ok {
		return ErrUnknownParent
	}
	if err := VerifyBlock(b, keys, elig, parent); err != nil {
		return err
	}
	n.known[b.Hash()] = b
	n.consider(b)
	return nil
}

// ReceiveChain delivers a full chain tip; missing ancestry is delivered
// first (deepest-first), as real peers sync headers.
func (n *Node) ReceiveChain(tip *Block, keys *Keyring, elig Eligibility) error {
	var pending []*Block
	for b := tip; b != nil; b = b.ParentBlock() {
		if _, ok := n.known[b.Hash()]; ok {
			break
		}
		pending = append(pending, b)
	}
	for i := len(pending) - 1; i >= 0; i-- {
		if err := n.Receive(pending[i], keys, elig); err != nil {
			return err
		}
	}
	return nil
}

// consider applies the longest-chain rule with the node's tie-break rule.
func (n *Node) consider(b *Block) {
	switch {
	case b.Depth() > n.tip.Depth():
		n.tip = b
	case b.Depth() == n.tip.Depth() && n.rule == ConsistentTies:
		// Deterministic common rule: lexicographically smallest tip hash.
		bh, th := b.Hash(), n.tip.Hash()
		if bytes.Compare(bh[:], th[:]) < 0 {
			n.tip = b
		}
		// Under AdversarialTies, first received wins: the strategy's
		// delivery order is the tie-break (axiom A0).
	}
}

// Strategy is an adversarial behavior plugged into the simulator. All hooks
// are optional through the embedded NullStrategy.
type Strategy interface {
	// OnSlotStart runs before the slot's honest leaders act; the rushing
	// adversary may deliver chains to chosen nodes here.
	OnSlotStart(sim *Sim, slot int)
	// OnHonestBlock observes a freshly created honest block before anyone
	// else (rushing) and may decide its per-recipient delivery delays via
	// sim.Broadcast (the engine broadcasts with zero extra delay when the
	// strategy does not).
	OnHonestBlock(sim *Sim, b *Block)
	// OnAdversarialSlot runs when the adversary controls the slot's
	// leaders; it may mint blocks via sim.MintAdversarial.
	OnAdversarialSlot(sim *Sim, slot int, leaders []int)
	// OnSlotEnd runs after deliveries for the slot have completed.
	OnSlotEnd(sim *Sim, slot int)
}

// Config assembles a simulation.
type Config struct {
	Schedule *leader.Schedule
	Keys     *Keyring // optional; derived from Seed when nil
	Rule     TieBreak
	Delta    int // maximum delivery delay in slots (0 = synchronous)
	Strategy Strategy
	Seed     int64
}

// Sim is the slot-synchronous protocol engine.
type Sim struct {
	cfg      Config
	genesis  *Block
	nodes    []*Node // one per honest party
	nodeByID map[int]*Node
	allBlock []*Block // every block ever created, creation order
	slot     int
	pending  []delivery // scheduled deliveries
	honestBy []int      // max honest block depth per slot (1-based index)
}

type delivery struct {
	at   int // slot at whose end the delivery happens
	to   int // node (party) ID
	tip  *Block
	rush bool // rushed deliveries precede regular ones in the inbox order
}

// NewSim builds a simulator from the config.
func NewSim(cfg Config) (*Sim, error) {
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("chainsim: nil schedule")
	}
	if cfg.Rule != AdversarialTies && cfg.Rule != ConsistentTies {
		return nil, fmt.Errorf("chainsim: invalid tie-break rule %d", cfg.Rule)
	}
	if cfg.Delta < 0 {
		return nil, fmt.Errorf("chainsim: negative delta")
	}
	if cfg.Strategy == nil {
		cfg.Strategy = NullStrategy{}
	}
	if cfg.Keys == nil {
		cfg.Keys = NewKeyring(len(cfg.Schedule.Parties), cfg.Seed)
	}
	s := &Sim{cfg: cfg, genesis: Genesis(), nodeByID: map[int]*Node{}}
	for _, p := range cfg.Schedule.Parties {
		if p.Honest {
			n := NewNode(p.ID, s.genesis, cfg.Rule)
			s.nodes = append(s.nodes, n)
			s.nodeByID[p.ID] = n
		}
	}
	if len(s.nodes) == 0 {
		return nil, fmt.Errorf("chainsim: no honest parties")
	}
	s.allBlock = append(s.allBlock, s.genesis)
	s.honestBy = make([]int, cfg.Schedule.Horizon()+1)
	return s, nil
}

// Genesis returns the genesis block.
func (s *Sim) Genesis() *Block { return s.genesis }

// Schedule returns the public leader schedule.
func (s *Sim) Schedule() *leader.Schedule { return s.cfg.Schedule }

// Nodes returns the honest nodes.
func (s *Sim) Nodes() []*Node { return s.nodes }

// Slot returns the current slot (0 before Run starts).
func (s *Sim) Slot() int { return s.slot }

// AllBlocks returns every block created during the execution; together
// they form the execution's fork.
func (s *Sim) AllBlocks() []*Block { return s.allBlock }

// MaxHonestDepth returns the deepest honest block issued at or before slot.
func (s *Sim) MaxHonestDepth(slot int) int {
	slot = min(slot, len(s.honestBy)-1)
	best := 0
	for t := 1; t <= slot; t++ {
		best = max(best, s.honestBy[t])
	}
	return best
}

// DeliverNow hands a chain to a node immediately (rushing injection).
// Strategies call this from OnSlotStart to steer honest leaders.
func (s *Sim) DeliverNow(nodeID int, tip *Block) error {
	n := s.nodeByID[nodeID]
	if n == nil {
		return fmt.Errorf("chainsim: no honest node %d", nodeID)
	}
	return n.ReceiveChain(tip, s.cfg.Keys, s.cfg.Schedule)
}

// ForceAdopt makes a node adopt a specific known chain among those of
// maximal length in its view. It models the tie-breaking power of the
// rushing adversary under axiom A0 (the designated chain counts as "first
// received") and is therefore rejected under ConsistentTies or when the
// chain is shorter than the node's current tip.
func (s *Sim) ForceAdopt(nodeID int, tip *Block) error {
	n := s.nodeByID[nodeID]
	if n == nil {
		return fmt.Errorf("chainsim: no honest node %d", nodeID)
	}
	if n.rule != AdversarialTies {
		return fmt.Errorf("chainsim: ForceAdopt requires adversarial tie-breaking (axiom A0)")
	}
	if !n.Knows(tip.Hash()) {
		h := tip.Hash()
		return fmt.Errorf("chainsim: node %d does not know chain %x", nodeID, h[:4])
	}
	if tip.Depth() < n.tip.Depth() {
		return fmt.Errorf("chainsim: cannot adopt shorter chain (%d < %d)", tip.Depth(), n.tip.Depth())
	}
	n.tip = tip
	return nil
}

// Broadcast schedules delivery of a chain to every honest node at the end
// of slot now+delay; delay must be ≤ Δ for honest blocks, which the engine
// enforces when it performs the default broadcast.
func (s *Sim) Broadcast(tip *Block, delay int) {
	for _, n := range s.nodes {
		s.pending = append(s.pending, delivery{at: s.slot + delay, to: n.ID, tip: tip})
	}
}

// MintAdversarial creates and registers a signed block by an adversarial
// party; the strategy decides when (if ever) to deliver it.
func (s *Sim) MintAdversarial(party, slot int, parent *Block, payload []byte) *Block {
	b := s.cfg.Keys.MakeBlock(party, slot, parent, payload)
	s.allBlock = append(s.allBlock, b)
	return b
}

// Run executes slots 1..horizon, invoking the per-slot observer (which may
// be nil) after each slot completes.
func (s *Sim) Run(observe func(sim *Sim, slot int)) error {
	horizon := s.cfg.Schedule.Horizon()
	for t := 1; t <= horizon; t++ {
		if err := s.step(t); err != nil {
			return fmt.Errorf("chainsim: slot %d: %w", t, err)
		}
		if observe != nil {
			observe(s, t)
		}
	}
	return nil
}

func (s *Sim) step(t int) error {
	s.slot = t
	s.cfg.Strategy.OnSlotStart(s, t)
	leaders := s.cfg.Schedule.Leaders[t-1]
	var honestLeaders, advLeaders []int
	for _, id := range leaders {
		if s.cfg.Schedule.Parties[id].Honest {
			honestLeaders = append(honestLeaders, id)
		} else {
			advLeaders = append(advLeaders, id)
		}
	}
	// Honest leaders extend their current best chains.
	for _, id := range honestLeaders {
		n := s.nodeByID[id]
		b := s.cfg.Keys.MakeBlock(id, t, n.Tip(), nil)
		s.allBlock = append(s.allBlock, b)
		s.honestBy[t] = max(s.honestBy[t], b.Depth())
		before := len(s.pending)
		s.cfg.Strategy.OnHonestBlock(s, b)
		if len(s.pending) == before {
			// Strategy did not schedule it; synchronous default.
			s.Broadcast(b, 0)
		}
		// Enforce the Δ bound on honest deliveries regardless of strategy.
		for i := before; i < len(s.pending); i++ {
			if s.pending[i].at > t+s.cfg.Delta {
				s.pending[i].at = t + s.cfg.Delta
			}
		}
	}
	if len(advLeaders) > 0 {
		s.cfg.Strategy.OnAdversarialSlot(s, t, advLeaders)
	}
	// End of slot: perform due deliveries, rushed first.
	if err := s.flush(t); err != nil {
		return err
	}
	s.cfg.Strategy.OnSlotEnd(s, t)
	return nil
}

func (s *Sim) flush(t int) error {
	var due, later []delivery
	for _, d := range s.pending {
		if d.at <= t {
			due = append(due, d)
		} else {
			later = append(later, d)
		}
	}
	s.pending = later
	// Rushed deliveries first: under adversarial ties, first received wins.
	for pass := 0; pass < 2; pass++ {
		for _, d := range due {
			if d.rush != (pass == 0) {
				continue
			}
			n := s.nodeByID[d.to]
			if n == nil {
				continue
			}
			if err := n.ReceiveChain(d.tip, s.cfg.Keys, s.cfg.Schedule); err != nil {
				return err
			}
		}
	}
	return nil
}

// Characteristic returns the execution's characteristic string as induced
// by the schedule.
func (s *Sim) Characteristic() charstring.String { return s.cfg.Schedule.Characteristic() }

// SettlementViolated reports whether, at the current point of the
// execution, the fork of all created blocks contains two maximum-length
// viable chains disjoint before slot target (the x-balanced-fork notion of
// Observation 2): the adversary could present both to honest observers,
// who would then disagree about the history from slot target onward.
func (s *Sim) SettlementViolated(target int) bool {
	// Viability threshold: a chain an honest observer may adopt must be at
	// least as long as every honest block so far.
	minLen := s.MaxHonestDepth(s.slot)
	maxDepth := 0
	for _, b := range s.allBlock {
		maxDepth = max(maxDepth, b.Depth())
	}
	if maxDepth < minLen {
		return false
	}
	var tips []*Block
	for _, b := range s.allBlock {
		if b.Depth() == maxDepth {
			tips = append(tips, b)
		}
	}
	for i := 0; i < len(tips); i++ {
		for j := i + 1; j < len(tips); j++ {
			if DisjointBefore(tips[i], tips[j], target) {
				return true
			}
		}
	}
	return false
}

// HonestTipsDiverged reports whether two honest nodes currently hold
// adopted chains whose histories are disjoint before slot target — a
// realized consistency failure among honest parties.
func (s *Sim) HonestTipsDiverged(target int) bool {
	for i := 0; i < len(s.nodes); i++ {
		for j := i + 1; j < len(s.nodes); j++ {
			if DisjointBefore(s.nodes[i].Tip(), s.nodes[j].Tip(), target) {
				return true
			}
		}
	}
	return false
}
