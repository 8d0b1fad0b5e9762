package protocol_test

import (
	"fmt"

	"repro/internal/protocol"
)

// ExampleNames lists the paper's 11 contestants plus the MVCC snapshot
// contestant this repo adds.
func ExampleNames() {
	for _, name := range protocol.Names() {
		fmt.Println(name)
	}
	// Output:
	// Node2PL
	// NO2PL
	// OO2PL
	// Node2PLa
	// IRX
	// IRIX
	// URIX
	// taDOM2
	// taDOM2+
	// taDOM3
	// taDOM3+
	// snapshot
}
