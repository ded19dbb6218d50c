package fake

// errcheck's data-path positives cannot carry `// want` markers — any
// comment on the discard's line (or the line above) is read as the
// justification the analyzer asks for. TestErrCheckDeep asserts the findings
// by function.

import "errors"

var errShort = errors.New("short")

func send(n int) error {
	if n < 0 {
		return errShort
	}
	return nil
}

func parse(n int) (int, error) { return n, nil }

// Inject is a data-path root by name. It discards twice without a word and
// twice with one.
func Inject(n int) {

	_ = send(n)

	v, _ := parse(n)

	consume(v)

	// the queue's drop counter already recorded the failure
	_ = send(n)

	w, _ := parse(n) // parse cannot fail for non-negative n
	consume(w)

	deep(n)
}

// deep buries the last bare discard two calls down.
func deep(n int) {
	relay(n)
}

func relay(n int) {

	_ = send(n)

}

func consume(int) {}

// offPath discards bare too, but nothing on the path reaches it.
func offPath(n int) {

	_ = send(n)

}
