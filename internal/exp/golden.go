package exp

// GoldenDigests records, per experiment, Digest of its CI-size run (Options
// with Smoke set) on amd64. A digest covers what the experiment reports, so
// a change that keeps behaviour keeps every one of them; Gate and the tier-1
// determinism test both check this table.
var GoldenDigests = map[string]uint64{
	"micro":     0x7d2d234a29bf3b04,
	"table1":    0x97d77d634eb1c300,
	"table2":    0x1643703d25b62cce,
	"edf":       0x18c6ff1f7c051ed6,
	"admission": 0x84caefeb426a3e5d,
	"queues":    0x77398c27500f7086,
	"loss":      0xcd938bb32543a695,
	"e10":       0xd4c47d52f86c3b2e,
	"overload":  0x11a67524848d4d9e,
	"e12":       0x0754649e3e3f4120,
	"e13":       0x826f78fcab348d15,
	"e14":       0x6e28eb570fd7d41d,
	"e15":       0x5deccec458413365,
	"ilp":       0xae17858dc8cb9b2e,
	"deadline":  0x2f6d48ff27a472f1,
}
