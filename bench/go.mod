module nocpu/bench

go 1.22

require nocpu v0.0.0

replace nocpu => ../
