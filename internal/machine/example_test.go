package machine_test

import (
	"fmt"

	"natle/internal/machine"
)

// ExampleProfile_HWThreads prints the large machine's topology.
func ExampleProfile_HWThreads() {
	p := machine.LargeX52()
	fmt.Printf("%d sockets x %d cores x %d threads = %d hardware threads\n",
		p.Sockets, p.CoresPerSocket, p.ThreadsPerCore, p.HWThreads())
	// Output: 2 sockets x 18 cores x 2 threads = 72 hardware threads
}
