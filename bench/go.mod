module nbody/bench

go 1.22

require nbody v0.0.0

replace nbody => ../
