// Every function is covered, so only the allocation diagnostics fire.
//
//act:alloc-harness mapLit
//act:alloc-harness makeMap
//act:alloc-harness appendLocal
//act:alloc-harness closureEscape
//act:alloc-harness convertEscape
//act:alloc-harness convertReturn
package bad
