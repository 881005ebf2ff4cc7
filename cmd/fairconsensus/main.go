// Command fairconsensus runs one execution of the rational fair consensus
// protocol (Protocol P) and reports the outcome and communication costs.
// Every run is described by a public fairgossip.Scenario, built from the
// shape flags below, looked up by name, or decoded from a version-1 JSON
// document.
//
// Examples:
//
//	fairconsensus -n 1024 -colors 2
//	fairconsensus -n 512 -colors 8 -alpha 0.3 -gamma 4 -seed 7
//	fairconsensus -n 256 -leader            # fair leader election (colors = IDs)
//	fairconsensus -n 256 -async             # sequential GOSSIP adaptation
//	fairconsensus -n 256 -topology regular8 # open-problem-1 exploration
//	fairconsensus -n 128 -deviation min-k-liar -coalition 3 # rational attack
//	fairconsensus -n 256 -alpha 0.25 -fault crash -fault-round 30
//	fairconsensus -n 256 -drop 0.05         # 5% probabilistic message loss
//	fairconsensus -n 256 -drop 0.05 -variant relaxed -min-votes 20
//	fairconsensus -n 128 -variant retransmit -ttl 3
//	fairconsensus -scenario churn           # a registered scenario by name
//	fairconsensus -scenario-json run.json   # a version-1 scenario document
//	fairconsensus -n 256 -dump-scenario     # print the canonical JSON and exit
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/fairgossip"
	"repro/internal/bridge"
	"repro/internal/rational"
	"repro/internal/trace"
)

func main() {
	var (
		scenarioName = flag.String("scenario", "", "run a registered scenario by name (see -list-scenarios); shape flags are ignored")
		scenarioJSON = flag.String("scenario-json", "", "run a version-1 scenario JSON document from this file (- for stdin)")
		listScen     = flag.Bool("list-scenarios", false, "print the scenario registry and exit")
		dump         = flag.Bool("dump-scenario", false, "print the canonical scenario JSON instead of running")
		n            = flag.Int("n", 256, "number of agents")
		colors       = flag.Int("colors", 2, "number of colors |Σ|")
		leader       = flag.Bool("leader", false, "fair leader election (every agent supports its own ID)")
		colorInit    = flag.String("colorinit", "", "initial opinions: uniform | split | zipf | leader (default uniform)")
		split        = flag.Float64("split", 0.5, "color-0 share for -colorinit split")
		zipfS        = flag.Float64("zipf-s", 1.0, "Zipf exponent for -colorinit zipf")
		gamma        = flag.Float64("gamma", 0, "phase-length constant γ (0 = protocol default)")
		alpha        = flag.Float64("alpha", 0, "fraction of nodes affected by the fault model")
		faultKind    = flag.String("fault", "", "fault model: none | permanent | crash | churn (default: permanent when -alpha > 0)")
		faultRound   = flag.Int("fault-round", 30, "crash onset round for -fault crash")
		churnPeriod  = flag.Int("churn-period", 8, "up/down interval in rounds for -fault churn")
		drop         = flag.Float64("drop", 0, "probabilistic per-message loss rate in [0, 1)")
		variant      = flag.String("variant", "", "protocol variant: baseline | live-retarget | retransmit | relaxed")
		ttl          = flag.Int("ttl", 0, "sends per vote for -variant retransmit (0 = default 2)")
		minVotes     = flag.Int("min-votes", 0, "per-voter check threshold for -variant relaxed (required there)")
		seed         = flag.Uint64("seed", 1, "master random seed")
		async        = flag.Bool("async", false, "run the sequential (one agent per tick) adaptation")
		topoName     = flag.String("topology", "complete", "complete | ring | regular<d> | er")
		deviation    = flag.String("deviation", "", "deviation name (see -list-deviations) for a rational coalition")
		coalition    = flag.Int("coalition", 0, "coalition size when -deviation is set")
		list         = flag.Bool("list-deviations", false, "print the deviation library and exit")
		traceRun     = flag.Bool("trace", false, "print every engine event (use with small -n)")
		runtimeRun   = flag.Bool("runtime", false, "execute on the message-passing runtime (a mailbox per node, GOMAXPROCS host goroutines) and report wall-clock + latency")
		jitter       = flag.Duration("jitter", 0, "with -runtime: per-message transport delay ceiling (e.g. 200us)")
		tdrop        = flag.Float64("transport-drop", 0, "with -runtime: transport-level per-message loss rate in [0, 1)")
		transport    = flag.String("transport", "channel", "with -runtime: conduit messages cross (channel|unix|tcp)")
	)
	flag.Parse()

	if *list {
		for _, d := range rational.AllDeviations() {
			fmt.Println(d.Name())
		}
		return
	}
	if *listScen {
		for _, name := range fairgossip.Names() {
			fmt.Println(name)
		}
		return
	}

	var sc fairgossip.Scenario
	switch {
	case *scenarioName != "":
		reg, err := fairgossip.Lookup(*scenarioName)
		if err != nil {
			fatal(fmt.Errorf("%v (see -list-scenarios)", err))
		}
		sc = reg
		sc.Seed = *seed

	case *scenarioJSON != "":
		doc, err := readDoc(*scenarioJSON)
		if err != nil {
			fatal(err)
		}
		sc, err = fairgossip.Decode(doc)
		if err != nil {
			fatal(err)
		}
		// An explicit -seed overrides the document's, mirroring the
		// -scenario branch and cmd/serve's per-request override; the
		// document's own seed stands otherwise.
		if seedSet() {
			sc.Seed = *seed
		}

	default:
		sc = fairgossip.Scenario{
			N:             *n,
			Colors:        *colors,
			ColorInit:     fairgossip.ColorInit(*colorInit),
			SplitFraction: *split,
			ZipfS:         *zipfS,
			Gamma:         *gamma,
			Topology:      *topoName,
			Seed:          *seed,
		}
		if *leader {
			sc.ColorInit = fairgossip.ColorsLeader
		}
		if *async {
			sc.Scheduler = fairgossip.SchedulerAsync
		}
		if *alpha > 0 || *drop > 0 {
			kind := fairgossip.FaultKind(*faultKind)
			if kind == "" && *alpha > 0 {
				kind = fairgossip.FaultPermanent
			}
			sc.Fault = fairgossip.FaultModel{
				Kind: kind, Alpha: *alpha, Round: *faultRound, Period: *churnPeriod, Drop: *drop,
			}
		}
		if *deviation != "" {
			sc.Deviation = *deviation
			sc.Coalition = *coalition
			if sc.Coalition < 1 {
				sc.Coalition = 1
			}
		}
		if *variant != "" || *ttl != 0 || *minVotes != 0 {
			sc.Protocol = fairgossip.Protocol{
				Variant:  fairgossip.ProtocolVariant(*variant),
				TTL:      *ttl,
				MinVotes: *minVotes,
			}
		}
	}

	if *dump {
		doc, err := fairgossip.Encode(sc)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", doc)
		return
	}

	runner, err := fairgossip.NewRunner(sc)
	if err != nil {
		fatal(err)
	}
	sc = runner.Scenario()
	p := runner.Params()
	fmt.Printf("protocol P: n=%d |Σ|=%d γ=%.1f q=%d rounds=%d variant=%s topology=%s scheduler=%s fault=%s\n",
		p.N, p.Colors, p.Gamma, p.Q, p.Rounds, protocolLabel(sc.Protocol), topologyLabel(sc), sc.Scheduler, faultLabel(sc.Fault))

	if *runtimeRun {
		rep, err := runner.RunLive(context.Background(), fairgossip.LiveOptions{
			Transport:     *transport,
			Jitter:        *jitter,
			TransportDrop: *tdrop,
		})
		if err != nil {
			fatal(err)
		}
		res := rep.Result
		fmt.Printf("outcome: %s in %d rounds\n", outcome(res), res.Rounds)
		fmt.Printf("communication: %s\n", metrics(res))
		fmt.Printf("runtime: transport=%s wall=%v delivered=%d (push=%d vote=%d query=%d reply=%d)\n",
			*transport, rep.WallClock, rep.Delivered, rep.Pushes, rep.Votes, rep.Queries, rep.Replies)
		fmt.Printf("latency: p50=%v p99=%v max=%v\n", rep.LatencyP50, rep.LatencyP99, rep.LatencyMax)
		return
	}

	res, err := runScenario(runner, sc, *traceRun)
	if err != nil {
		fatal(err)
	}
	switch {
	case sc.Scheduler == fairgossip.SchedulerAsync:
		fmt.Printf("outcome: %s after %d ticks (%.2f activations/agent)\n",
			outcome(res), res.Rounds, float64(res.Rounds)/float64(p.N))

	case sc.Coalition > 0:
		fmt.Printf("coalition: %v deviation: %s\n", runner.CoalitionMembers(), sc.Deviation)
		fmt.Printf("outcome: %s (coalition color won: %v)\n", outcome(res), res.CoalitionColorWon)
		fmt.Printf("communication: %s\n", metrics(res))

	default:
		fmt.Printf("outcome: %s in %d rounds\n", outcome(res), res.Rounds)
		fmt.Printf("communication: %s\n", metrics(res))
		fmt.Printf("good execution (Definition 2): %v (votes per agent in [%d, %d], distinct k: %v, certs agree: %v)\n",
			res.Good.Good(), res.Good.MinVotes, res.Good.MaxVotes, res.Good.DistinctK, res.Good.CertsAgree)
	}
}

// seedSet reports whether -seed was given explicitly on the command line.
func seedSet() bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			set = true
		}
	})
	return set
}

// runScenario executes through the public API, or — for -trace, which needs
// an engine event sink the public surface does not expose — through the
// internal runner, snapshotting into the same public Result shape.
func runScenario(runner *fairgossip.Runner, sc fairgossip.Scenario, traced bool) (fairgossip.Result, error) {
	if !traced {
		return runner.Run(context.Background())
	}
	inner, err := bridge.NewRunner(sc)
	if err != nil {
		return fairgossip.Result{}, err
	}
	inner.Trace = &trace.Writer{W: os.Stdout}
	res, err := inner.Run()
	if err != nil {
		return fairgossip.Result{}, err
	}
	return bridge.ResultToPublic(res), nil
}

// topologyLabel names the communication graph: the static topology, or the
// graph process (with its rates) when the scenario is dynamic.
func topologyLabel(sc fairgossip.Scenario) string {
	d := sc.Dynamics
	switch {
	case d.Kind == fairgossip.DynamicsEdgeMarkovian:
		return fmt.Sprintf("%s(birth=%g,death=%g)", d.Kind, d.Birth, d.Death)
	case d.Kind == fairgossip.DynamicsRewireRing:
		return fmt.Sprintf("%s(beta=%g)", d.Kind, d.Beta)
	case d.Kind == fairgossip.DynamicsDRegular:
		return fmt.Sprintf("%s(degree=%d)", d.Kind, d.Degree)
	case d.Kind == fairgossip.DynamicsGeometric:
		return fmt.Sprintf("%s(degree=%d,jitter=%g)", d.Kind, d.Degree, d.Jitter)
	default:
		return sc.Topology
	}
}

// protocolLabel names the protocol variant with its parameter, if any.
func protocolLabel(p fairgossip.Protocol) string {
	switch p.Variant {
	case fairgossip.ProtocolRetransmit:
		return fmt.Sprintf("%s(ttl=%d)", p.Variant, p.TTL)
	case fairgossip.ProtocolRelaxed:
		return fmt.Sprintf("%s(min-votes=%d)", p.Variant, p.MinVotes)
	default:
		return string(p.Variant)
	}
}

func faultLabel(f fairgossip.FaultModel) string {
	if f.Drop > 0 {
		return fmt.Sprintf("%s+drop(%g)", f.Kind, f.Drop)
	}
	return string(f.Kind)
}

func outcome(res fairgossip.Result) string {
	if res.Failed {
		return "⊥"
	}
	return fmt.Sprintf("color(%d)", res.Color)
}

func metrics(res fairgossip.Result) string {
	m := res.Metrics
	return fmt.Sprintf("rounds=%d msgs=%d bits=%d maxMsgBits=%d pushes=%d pulls=%d unanswered=%d",
		m.Rounds, m.Messages, m.Bits, m.MaxMessageBits, m.Pushes, m.Pulls, m.UnansweredPulls)
}

func readDoc(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fairconsensus:", err)
	os.Exit(1)
}
