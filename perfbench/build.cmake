# Build file of the benchmark's load generator.
#
# run.py configures the repository's own CMake project with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# so the load generator is built beside, and linked against, exactly the daemons
# and libraries a deployment runs, without editing the repository's
# build files. CMake includes this file right after the project() call;
# the library targets it names are resolved when the build is generated.
if(TARGET perfbench-load)
  return()
endif()

add_executable(perfbench-load ${CMAKE_CURRENT_LIST_DIR}/load.cpp)
target_compile_features(perfbench-load PRIVATE cxx_std_20)
target_compile_options(perfbench-load PRIVATE -Wall -Wextra
  -Wno-missing-field-initializers)
target_link_libraries(perfbench-load PRIVATE itree_all)
