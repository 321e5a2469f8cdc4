package main

// Example runs the maintenance scenario and pins what it prints. The run
// is deterministic (virtual time, fixed seeds), so a changed line is a
// changed behavior.
func Example() {
	main()
	// Output:
	// ping, wrong token:       auth failed
	// ping:                    ok
	// stat log:                ok
	//   log is 27 bytes
	// tail log:                ok
	//   last 17 bytes: "no CPU was harmed"
	// upload fw.bin:           ok
	//   fw.bin on the volume: 6000 bytes
	// console served 4 commands, refused 1
	// virtual time elapsed: 2.880ms
}
