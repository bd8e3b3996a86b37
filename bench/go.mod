module sofya/bench

go 1.24

require sofya v0.0.0

replace sofya => ../
