// Markers declaring AllocsPerRun coverage for the annotated functions.
//
//act:alloc-harness search
//act:alloc-harness closureCapture
//act:alloc-harness convertArg
//act:alloc-harness appendPrealloc
//act:alloc-harness appendCallerOwned
package good
