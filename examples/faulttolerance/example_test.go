package main

// Example runs the faulttolerance scenario and pins what it prints. The run is
// deterministic (virtual time, fixed seeds), so a changed line is a
// changed behavior.
func Example() {
	main()
	// Output:
	// [10.280ms] loaded 20 keys, store ready=true
	// [10.280ms] SSD killed
	// [11.680ms] recovered: SSD remounted, KVS index rebuilt (20 records scanned)
	//     time to full recovery: 1.400ms
	//     get k07 after recovery -> "value-7" (status 0)
	//
	// -- failure-handling events on the bus --
	//      1.130ms  ssd                          fs-ready
	//     10.280ms  ssd                          killed
	//     11.000ms  bus          -> broadcast    device.failed          ssd: watchdog: missed heartbeats
	//     11.000ms  bus          -> ssd          reset                  watchdog: missed heartbeats
	//     11.001ms  ssd                          resetting
	//     11.203ms  ssd          -> bus          reset.done
	//     11.326ms  ssd                          fs-ready
}
