package main

// Example runs the quickstart scenario and pins what it prints. The run is
// deterministic (virtual time, fixed seeds), so a changed line is a
// changed behavior.
func Example() {
	main()
	// Output:
	// put status: 0
	// get -> "world, without a CPU"
	//
	// -- Figure 2: initialization sequence on the system bus --
	//      1.402ms  nic          -> broadcast    discover.req           file:kv.dat
	//      1.404ms  ssd          -> nic          discover.resp          file:kv.dat
	//      1.407ms  nic          -> ssd          open.req               file:kv.dat
	//      1.410ms  ssd          -> nic          open.resp              file:kv.dat shm=531200 ok=true
	//      1.412ms  nic          -> memctrl      alloc.req              app=1 va=0x10000000 bytes=267648
	//      1.416ms  memctrl      -> nic          alloc.resp             app=1 va=0x10000000 frames=66 ok=true
	//      1.430ms  nic          -> bus          grant.req              app=1 va=0x10000000 -> dev2
	//      1.430ms  bus          -> memctrl      auth.req
	//      1.434ms  memctrl      -> bus          auth.resp
	//      1.444ms  bus          -> nic          grant.resp             app=1 va=0x10000000 ok=true
	//      1.446ms  nic          -> ssd          connect.req            file:kv.dat ring=0x10000000
	//      1.449ms  ssd          -> nic          connect.resp
	//
	// virtual time elapsed: 1.950ms
}
