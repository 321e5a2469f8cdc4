package main

// Example runs the pipeline scenario and pins what it prints. The run is
// deterministic (virtual time, fixed seeds), so a changed line is a
// changed behavior.
func Example() {
	main()
	// Output:
	// pipeline processed 14 chunks, 40000 -> 800 bytes (50.0x compression)
	// first/last chunk CRC32: 9933fd3b / f6946ec9
	// virtual time: 3.200ms
	//
	// one application, one address space, three devices:
	//   nic IOMMU contexts:   1 (PASID 1)
	//   ssd IOMMU contexts:   1 (PASID 1, granted by bus)
	//   accel IOMMU contexts: 1 (PASID 1, granted by bus)
	//   accel ops served:     28 (80000 bytes)
	//   bus grants authorized: 3
	//
	// the file and both accelerator connections closed:
	//   memctrl bytes live before the opens: 0
	//   memctrl bytes live while open:       548864
	//   memctrl bytes live after the closes: 0
}
