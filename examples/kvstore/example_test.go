package main

// Example runs the kvstore scenario and pins what it prints. The run is
// deterministic (virtual time, fixed seeds), so a changed line is a
// changed behavior.
func Example() {
	main()
	// Output:
	// machine                                 ops/s        p50        p99     errors
	// decentralized (paper)                   48269  204.800us    2.032ms          0
	// centralized control, P2P data           48269  204.800us    2.032ms          0
	// kernel-mediated data path               48835  221.184us    2.097ms          0
}
