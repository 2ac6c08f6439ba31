// leopard-bench is a module of its own so that the benchmark has its own
// build file and is not part of the root module's ./... patterns. The
// module path sits under the root module's path, which is what lets it
// import leopard/internal/...; the replace directive points at the checkout.
module leopard/cmd/leopard-bench

go 1.24

require leopard v0.0.0

replace leopard => ../..
