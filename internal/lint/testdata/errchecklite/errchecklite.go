// Golden input for errcheck's bare-statement rule: statements that drop an
// error result fire; explicit discards and exempted callees do not.
package fake

import (
	"errors"
	"fmt"
	"strings"
)

func mayFail() error { return errors.New("x") }

func pair() (int, error) { return 0, nil }

func pure() int { return 0 }

func bad() {
	mayFail() // want "mayFail returns an error that is silently discarded"
	pair()    // want "pair returns an error that is silently discarded"
}

func good() error {
	_ = mayFail() // explicit discard is visible and greppable
	_, _ = pair()
	pure()            // no error result
	fmt.Println("ok") // exempt: best-effort terminal output
	var b strings.Builder
	b.WriteString("x") // exempt: documented never to fail
	if err := mayFail(); err != nil {
		return err
	}
	return mayFail()
}
