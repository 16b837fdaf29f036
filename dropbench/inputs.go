package main

import (
	"math/rand"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/names"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// Everything the program under test receives is generated in this file from
// the workload seed: registrar directory, seeded registrations, fresh names
// for creates, the Drop queue, the lookup mix and the recovery WAL tail. The
// seeding reference instant is fixed, not read from the wall clock, so a
// seed yields byte-identical inputs on every run (inputs_test.go).

// dropDay is the day every workload's Drop happens on. Pending-delete
// registrations are scheduled relative to it.
var dropDay = simtime.DayOf(time.Date(2018, 4, 16, 0, 0, 0, 0, time.UTC))

// base is the seeding reference instant: every seeded timestamp is a
// whole-second offset from it.
var base = dropDay.Start()

// popSpec sizes one workload's registry population.
type popSpec struct {
	// Total is the number of seeded registrations, pending ones included.
	Total int
	// Pending[i] registrations are pendingDelete for dropDay+i.
	Pending []int
	// Fresh is how many never-registered names to generate for creates.
	Fresh int
	// ExtraTLD, when set, receives every tenth non-pending registration
	// (the recovery workload's second zone).
	ExtraTLD model.TLD
}

// seedRec is one registration handed to Store.SeedAt.
type seedRec struct {
	Name      string
	Registrar int
	Created   time.Time
	Updated   time.Time
	Expiry    time.Time
	Status    model.Status
	DeleteDay simtime.Day
}

// population is a workload's generated world.
type population struct {
	Dir   *registrars.Directory
	Seeds []seedRec
	// PendingByDay[i] lists the names pendingDelete on dropDay+i, in
	// generation order.
	PendingByDay [][]string
	// Active lists names seeded active (renew/touch targets).
	Active []string
	// Fresh lists names that are never seeded.
	Fresh []string
}

// genPopulation builds the world for seed. Pending-delete registrations come
// first so their count never depends on Total.
func genPopulation(seed int64, spec popSpec) *population {
	rng := rand.New(rand.NewSource(seed))
	p := &population{Dir: registrars.BuildDirectory(rng)}
	gen := names.NewGenerator(rng)
	sponsors := p.Dir.Accreditations(registrars.SvcGoDaddy)
	sponsors = append(sponsors, p.Dir.Accreditations(registrars.SvcOther)...)
	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }

	p.Seeds = make([]seedRec, 0, spec.Total)
	p.PendingByDay = make([][]string, len(spec.Pending))
	for day, n := range spec.Pending {
		for i := 0; i < n; i++ {
			name := gen.Next().Label + ".com"
			created := base.AddDate(-2-rng.Intn(8), 0, -rng.Intn(365))
			// Last-updated is the Drop queue's order key: spread it over a
			// day of whole seconds so the queue order is seeded, not tied.
			updated := base.AddDate(0, 0, -33).Add(-sec(rng.Intn(86400)))
			p.Seeds = append(p.Seeds, seedRec{
				Name: name, Registrar: sponsors[rng.Intn(len(sponsors))],
				Created: created, Updated: updated, Expiry: updated.AddDate(0, 0, -35),
				Status: model.StatusPendingDelete, DeleteDay: dropDay.AddDays(day),
			})
			p.PendingByDay[day] = append(p.PendingByDay[day], name)
		}
	}
	for i := len(p.Seeds); i < spec.Total; i++ {
		tld := "com"
		if spec.ExtraTLD != "" && i%10 == 0 {
			tld = string(spec.ExtraTLD)
		}
		name := gen.Next().Label + "." + tld
		r := seedRec{Name: name, Registrar: sponsors[rng.Intn(len(sponsors))]}
		switch i % 3 {
		case 0:
			r.Created = base.AddDate(-1-rng.Intn(5), 0, -rng.Intn(300))
			r.Updated = r.Created
			r.Expiry = r.Created.AddDate(1+rng.Intn(5), 0, 0)
			r.Status = model.StatusActive
			p.Active = append(p.Active, name)
		case 1:
			r.Created = base.AddDate(-2, 0, -rng.Intn(30))
			r.Updated = base.AddDate(0, 0, -rng.Intn(20))
			r.Expiry = r.Updated.AddDate(1, 0, 0)
			r.Status = model.StatusAutoRenew
		default:
			r.Created = base.AddDate(-3, 0, 0)
			r.Updated = base.AddDate(0, 0, -rng.Intn(25))
			r.Expiry = r.Updated.AddDate(0, 0, -35)
			r.Status = model.StatusRedemption
		}
		p.Seeds = append(p.Seeds, r)
	}
	p.Fresh = make([]string, spec.Fresh)
	for i := range p.Fresh {
		p.Fresh[i] = gen.Next().Label + ".com"
	}
	return p
}

// seedStore installs the population's registrars and registrations.
func seedStore(store *registry.Store, p *population) error {
	for _, r := range p.Dir.Registrars() {
		store.AddRegistrar(r)
	}
	for _, r := range p.Seeds {
		if _, err := store.SeedAt(r.Name, r.Registrar, r.Created, r.Updated, r.Expiry, r.Status, r.DeleteDay); err != nil {
			return err
		}
	}
	return nil
}

// catchers returns the n accreditations the EPP sessions log in as: one
// drop-catch accreditation per session, as a drop-catch service spreads its
// connections.
func catchers(dir *registrars.Directory, n int) []int {
	return dir.Accreditations(registrars.SvcDropCatch)[:n]
}

// opKind is one lookup-mix request type.
type opKind uint8

const (
	opRDAP opKind = iota
	opWHOIS
	opList
	opDeltas
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"rdap", "whois", "list", "deltas"}[k]
}

// mixOp is one reader request: a kind and, for RDAP and WHOIS, a name.
type mixOp struct {
	Kind opKind
	Name string
}

// mixBlock is the lookup mix in exact proportions: RDAP 70%, WHOIS 20%,
// list fetch 5%, delta poll 5%. Each reader draws requests one shuffled
// block at a time, so every 20 consecutive requests hold exactly this mix
// and no seed runs a heavier or lighter mix than another.
var mixBlock = func() []opKind {
	var b []opKind
	for k, n := range [numOpKinds]int{opRDAP: 14, opWHOIS: 4, opList: 1, opDeltas: 1} {
		for i := 0; i < n; i++ {
			b = append(b, opKind(k))
		}
	}
	return b
}()

// mixGen draws one reader's request sequence: the kinds from shuffled
// mixBlocks; names 80% from the hot set, 20% uniform over the population.
type mixGen struct {
	rng   *rand.Rand
	hot   []string
	all   []seedRec
	block []opKind
}

func newMixGen(seed int64, reader int, hot []string, all []seedRec) *mixGen {
	return &mixGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(reader) + 1)), hot: hot, all: all}
}

// Next returns the reader's next request.
func (g *mixGen) Next() mixOp {
	if len(g.block) == 0 {
		g.block = append(g.block, mixBlock...)
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	op := mixOp{Kind: g.block[0]}
	g.block = g.block[1:]
	if op.Kind != opRDAP && op.Kind != opWHOIS {
		return op
	}
	if g.rng.Intn(100) < 80 {
		op.Name = g.hot[g.rng.Intn(len(g.hot))]
	} else {
		op.Name = g.all[g.rng.Intn(len(g.all))].Name
	}
	return op
}

// tailKind is one recovery WAL-tail operation.
type tailKind uint8

const (
	tailCreate tailKind = iota
	tailRenew
	tailTouch
	tailPurge
)

// tailOp is one mutation of the recovery workload's WAL tail.
type tailOp struct {
	Kind      tailKind
	Name      string
	Registrar int
	Seconds   int // TouchAt offset from base
}

// genTail draws n tail operations: creates 40%, renews 25%, touches 25%,
// purges 10%. Renew, touch and purge targets are drawn without replacement,
// so every operation is valid against the seeded population whatever the
// interleaving.
func genTail(seed int64, p *population, n int) []tailOp {
	rng := rand.New(rand.NewSource(seed*7_919 + 17))
	sponsor := make(map[string]int, len(p.Active))
	for _, r := range p.Seeds {
		if r.Status == model.StatusActive {
			sponsor[r.Name] = r.Registrar
		}
	}
	active := rng.Perm(len(p.Active))
	var pending []string
	for _, day := range p.PendingByDay {
		pending = append(pending, day...)
	}
	purge := rng.Perm(len(pending))
	creators := catchers(p.Dir, 2)
	ops := make([]tailOp, 0, n)
	fresh, act, pur := 0, 0, 0
	for len(ops) < n {
		r := rng.Intn(100)
		switch {
		case r < 40 && fresh < len(p.Fresh):
			ops = append(ops, tailOp{Kind: tailCreate, Name: p.Fresh[fresh], Registrar: creators[rng.Intn(len(creators))]})
			fresh++
		case r < 90 && act < len(active):
			name := p.Active[active[act]]
			act++
			k := tailRenew
			if r >= 65 {
				k = tailTouch
			}
			ops = append(ops, tailOp{Kind: k, Name: name, Registrar: sponsor[name], Seconds: rng.Intn(86400)})
		case r >= 90 && pur < len(purge):
			ops = append(ops, tailOp{Kind: tailPurge, Name: pending[purge[pur]]})
			pur++
		}
	}
	return ops
}

// applyTail runs the tail operations against store through its public
// mutators; with a journal attached each becomes one WAL record.
func applyTail(store *registry.Store, runner *registry.DropRunner, ops []tailOp) error {
	for i, op := range ops {
		var err error
		switch op.Kind {
		case tailCreate:
			_, err = store.Create(op.Name, op.Registrar, 1)
		case tailRenew:
			err = store.Renew(op.Name, op.Registrar, 1)
		case tailTouch:
			err = store.TouchAt(op.Name, op.Registrar, base.Add(time.Duration(op.Seconds)*time.Second))
		case tailPurge:
			_, err = runner.Apply(registry.Scheduled{Name: op.Name, Time: dropDay.At(19, 0, 0), Rank: i})
		}
		if err != nil {
			return err
		}
	}
	return nil
}
