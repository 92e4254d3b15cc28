module mapsynth/bench

go 1.22

require mapsynth v0.0.0

replace mapsynth => ../
