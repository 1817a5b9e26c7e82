module manetkit/benchmark

go 1.22

require manetkit v0.0.0

replace manetkit => ../
