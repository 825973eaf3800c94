module delaycalc/bench

go 1.22

require delaycalc v0.0.0

replace delaycalc => ../
