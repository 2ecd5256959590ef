module hfetch/benchmark

go 1.22

require hfetch v0.0.0

replace hfetch => ../
