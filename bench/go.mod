module distlog/bench

go 1.22

require distlog v0.0.0

replace distlog => ../
