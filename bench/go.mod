module natle/bench

go 1.23

require natle v0.0.0

replace natle => ../
