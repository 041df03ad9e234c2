module ita/bench

go 1.24

require ita v0.0.0

replace ita => ../
