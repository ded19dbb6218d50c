package fake

// Inject is a data-path root by name. New* and must* functions may panic
// only while no delivery chain can reach them.
func Inject(n int) {
	buf := NewBuffer(n)
	mustAlign(n)
	checkOwner(buf, n)
}

// NewBuffer panics on bad input, and it is on the path: nothing documents
// the panic as an assertion.
func NewBuffer(n int) []byte {
	if n < 0 {
		panic("negative size") // want "reachable from the data path"
	}
	return make([]byte, n)
}

// mustAlign is reachable and undocumented.
func mustAlign(n int) {
	if n%8 != 0 {
		panic("unaligned") // want "reachable from the data path"
	}
}

// checkOwner carries the marker: its panic is a documented fail-loud
// assertion, legal even on the path.
//
//scout:assert a foreign owner means the buffer table is corrupt; continuing would alias memory
func checkOwner(buf []byte, owner int) {
	if len(buf) > 0 && owner < 0 {
		panic("foreign owner") // OK: //scout:assert
	}
}

// NewOffPath panics too, but no chain reaches it, so nopanic stays quiet.
func NewOffPath(n int) []byte {
	if n < 0 {
		panic("negative size")
	}
	return make([]byte, n)
}
